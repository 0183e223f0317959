package shard

import (
	"maps"
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// TestResliceProperties: for shuffled pooled state of both sides and every
// modulus 1..6, each tuple lands in its seq mod N class, each slice holds
// R before S in ascending sequence order (what ImportState requires), and
// the union of the slices is exactly the input.
func TestResliceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		var pooled []core.Input
		for _, side := range []stream.Side{stream.SideR, stream.SideS} {
			seq := uint64(rng.Intn(1000))
			for n := rng.Intn(200); n > 0; n-- {
				seq += 1 + uint64(rng.Intn(5))
				pooled = append(pooled, core.Input{Side: side, Tuple: stream.Tuple{Key: rng.Uint32(), Val: rng.Uint32(), Seq: seq}})
			}
		}
		rng.Shuffle(len(pooled), func(i, j int) { pooled[i], pooled[j] = pooled[j], pooled[i] })
		want := make(map[core.Input]int)
		for _, in := range pooled {
			want[in]++
		}
		for modulus := 1; modulus <= 6; modulus++ {
			slices := Reslice(append([]core.Input(nil), pooled...), modulus)
			if len(slices) != modulus {
				t.Fatalf("modulus %d: %d slices", modulus, len(slices))
			}
			got := make(map[core.Input]int)
			for j, slice := range slices {
				for i, in := range slice {
					if in.Tuple.Seq%uint64(modulus) != uint64(j) {
						t.Fatalf("modulus %d: seq %d in slice %d", modulus, in.Tuple.Seq, j)
					}
					if i > 0 {
						prev := slice[i-1]
						if prev.Side == stream.SideS && in.Side == stream.SideR ||
							prev.Side == in.Side && prev.Tuple.Seq >= in.Tuple.Seq {
							t.Fatalf("modulus %d slice %d: %+v before %+v", modulus, j, prev, in)
						}
					}
					got[in]++
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("modulus %d: union of slices differs from the input", modulus)
			}
		}
	}
}

// TestEffectiveWindow pins the per-core round-up and the cases where the
// rounding cannot be computed client-side.
func TestEffectiveWindow(t *testing.T) {
	for _, c := range []struct{ window, shards, cores, want int }{
		{120, 3, 2, 120}, // slice 40 divides by 2 cores
		{120, 2, 2, 120},
		{120, 4, 7, 140}, // slice 30 rounds up to 35
		{64, 1, 3, 66},   // slice 64 rounds up to 66
		{100, 3, 2, 100}, // window does not split: unchanged
		{120, 0, 2, 120}, // no shards
		{120, 3, 0, 120}, // server-default cores
		{120, 3, -1, 120},
	} {
		if got := EffectiveWindow(c.window, c.shards, c.cores); got != c.want {
			t.Errorf("EffectiveWindow(%d, %d, %d) = %d, want %d", c.window, c.shards, c.cores, got, c.want)
		}
	}
}
