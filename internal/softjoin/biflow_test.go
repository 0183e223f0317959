package softjoin

import (
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
)

// TestBiFlowNoDuplicatesUnderConcurrency: with both streams flowing, no
// pair is ever emitted twice and all emitted pairs satisfy the condition.
func TestBiFlowNoDuplicatesUnderConcurrency(t *testing.T) {
	leakcheck.Check(t)
	const (
		cores  = 4
		window = 64
	)
	rng := rand.New(rand.NewSource(41))
	e, err := NewBiFlow(Config{NumCores: cores, WindowSize: window})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(e.Results())
	for i := 0; i < 2000; i++ {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		e.Push(side, stream.Tuple{Key: uint32(rng.Intn(6))})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, r := range *got {
		if r.R.Key != r.S.Key {
			t.Fatalf("pair violates condition: %v", r)
		}
		if seen[r.PairID()] {
			t.Fatalf("pair emitted twice: %v", r)
		}
		seen[r.PairID()] = true
	}
	if len(*got) == 0 {
		t.Error("no results; vacuous test")
	}
	expR, expS := e.Expired()
	if expR == 0 || expS == 0 {
		t.Errorf("expected expiry on both ends, got R=%d S=%d", expR, expS)
	}
}

// TestBiFlowBatchesMatchResults runs one one-direction trace (exact under
// bi-flow) through each of the chain's two consumers: both equal the
// oracle, every batch holds the matches of one probing tuple, and after
// Close, Collected counts exactly the results received.
func TestBiFlowBatchesMatchResults(t *testing.T) {
	leakcheck.Check(t)
	const (
		cores  = 4
		window = 32
		probes = 40
	)
	rng := rand.New(rand.NewSource(47))
	s := make([]stream.Tuple, window)
	for i := range s {
		s[i] = stream.Tuple{Key: uint32(rng.Intn(8)), Seq: uint64(i)}
	}
	probeKeys := make([]uint32, probes)
	for i := range probeKeys {
		probeKeys[i] = uint32(rng.Intn(8))
	}
	oracle, err := core.NewOracle(window+probes+1024, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range s {
		if _, err := oracle.Push(stream.SideS, stream.Tuple{Key: tu.Key}); err != nil {
			t.Fatal(err)
		}
	}
	var want []stream.Result
	for _, k := range probeKeys {
		rs, err := oracle.Push(stream.SideR, stream.Tuple{Key: k})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rs...)
	}
	if len(want) == 0 {
		t.Fatal("oracle produced nothing; vacuous test")
	}

	for _, via := range []string{"Batches", "Results"} {
		t.Run(via, func(t *testing.T) {
			e, err := NewBiFlow(Config{NumCores: cores, WindowSize: window})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Preload(nil, s); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			var got []stream.Result
			done := make(chan struct{})
			go func() {
				defer close(done)
				if via == "Results" {
					for r := range e.Results() {
						got = append(got, r)
					}
					return
				}
				for b := range e.Batches() {
					for _, r := range b.Results {
						if r.R.Seq != b.Results[0].R.Seq {
							t.Errorf("one batch holds the matches of R seqs %d and %d", b.Results[0].R.Seq, r.R.Seq)
							break
						}
					}
					got = append(got, b.Results...)
					b.Release()
				}
			}()
			for _, k := range probeKeys {
				e.Push(stream.SideR, stream.Tuple{Key: k})
			}
			// Flush: push the real probes through the entire chain.
			for i := 0; i < window+probes+16; i++ {
				e.Push(stream.SideR, stream.Tuple{Key: 0xFFFFFFFE})
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			<-done
			if diffs := core.NewResultSet(want).Diff(core.NewResultSet(got)); len(diffs) != 0 {
				t.Errorf("via %s: %d diffs from the oracle: %v", via, len(diffs), diffs[:min(4, len(diffs))])
			}
			if c := e.Collected(); c != uint64(len(got)) {
				t.Errorf("via %s: Collected() = %d after Close, received %d", via, c, len(got))
			}
		})
	}
}
