package main

import "testing"

const sampleExposition = `# HELP streamd_sessions_active Live client sessions.
# TYPE streamd_sessions_active gauge
streamd_sessions_active 1
streamd_build_info{version="0.7.0 (go1.24.0 linux/amd64)"} 1
streamd_session_tuples_in_total{session="1",engine="soft-uni"} 1024
streamd_session_tuples_in_total{session="2",engine="soft-uni"} 2048
streamshard_shard_results_total{session="1",shard="0",addr="127.0.0.1:4000"} 30
streamshard_shard_results_total{session="1",shard="1",addr="a \"quoted\", addr"} 10
streamd_checkpoint_age_seconds -1
streamshard_rebalance_duration_seconds 1.5e-3 1700000000000
`

func TestParseProm(t *testing.T) {
	samples, err := parseProm(sampleExposition)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("parsed %d samples, want 8", len(samples))
	}
	if got := promSum(samples, "streamd_session_tuples_in_total"); got != 3072 {
		t.Errorf("tuples_in sum = %v, want 3072", got)
	}
	per := promValues(samples, "streamshard_shard_results_total")
	if len(per) != 2 || per[0] != 30 || per[1] != 10 {
		t.Errorf("per-shard results = %v, want [30 10]", per)
	}
	if got := samples[5].labels["addr"]; got != `a "quoted", addr` {
		t.Errorf("quoted label = %q", got)
	}
	if got := samples[1].labels["version"]; got != "0.7.0 (go1.24.0 linux/amd64)" {
		t.Errorf("label with spaces and parentheses = %q", got)
	}
	if got := promSum(samples, "streamd_checkpoint_age_seconds"); got != -1 {
		t.Errorf("negative gauge = %v", got)
	}
	if got := promSum(samples, "streamshard_rebalance_duration_seconds"); got != 1.5e-3 {
		t.Errorf("value before a timestamp = %v", got)
	}
	if got := promSum(samples, "no_such_family"); got != 0 {
		t.Errorf("missing family sums to %v", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value",
		`m{label="unterminated} 1`,
		`m{label=noquotes} 1`,
		"m not-a-number",
		"m} 1 {",
	} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
