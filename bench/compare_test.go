package main

import "testing"

func flat(v float64) []float64 { return []float64{v, v, v, v} }

func TestJudgeAtTheBoundEdges(t *testing.T) {
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"lower: exactly at the bound holds", flat(100), flat(110), "lower", verdictOK},
		{"lower: just past the bound", flat(100), flat(110.1), "lower", verdictWorse},
		{"lower: an improvement is never worse", flat(100), flat(50), "lower", verdictOK},
		{"higher: exactly at the bound holds", flat(100), flat(90), "higher", verdictOK},
		{"higher: just past the bound", flat(100), flat(89.9), "higher", verdictWorse},
		{"higher: an improvement is never worse", flat(100), flat(200), "higher", verdictOK},
		{"spread wider than the bound is unresolved", []float64{80, 100, 100, 120, 130}, flat(100), "lower", verdictUnresolved},
		{"worse wins over unresolved", []float64{80, 100, 100, 120, 130}, flat(150), "lower", verdictWorse},
		{"a zero base cannot be judged", flat(0), flat(1), "lower", verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if ratio, _ := judge(flat(200), flat(150), "lower", 0.1); ratio != 0.75 {
		t.Errorf("ratio = %v, want b/a = 0.75", ratio)
	}
}
