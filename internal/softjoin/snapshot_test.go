package softjoin

import (
	"math/rand"
	"sort"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/leakcheck"
	"accelstream/internal/stream"
)

// TestUniFlowSnapshotState cuts live snapshots mid-stream and checks the
// quiesce contract: the returned seqs equal the tuples pushed so far, the
// window image matches a sequential replay of the prefix, the order is
// R-before-S ascending per-side seq, and the engine keeps producing the
// full oracle-equal result set afterwards.
func TestUniFlowSnapshotState(t *testing.T) {
	leakcheck.Check(t)
	for _, ordered := range []bool{false, true} {
		for _, cores := range []int{1, 4} {
			const window, total, batch = 64, 1200, 100
			rng := rand.New(rand.NewSource(int64(7 + cores)))
			workload := randomWorkload(rng, total, 48)

			e, err := NewUniFlow(Config{NumCores: cores, WindowSize: window, OrderedResults: ordered})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			wg, got := drain(e.Results())

			var nR, nS uint64
			for off := 0; off < total; off += batch {
				e.PushBatch(workload[off : off+batch])
				for _, in := range workload[off : off+batch] {
					if in.Side == stream.SideR {
						nR++
					} else {
						nS++
					}
				}
				if (off/batch)%3 != 2 {
					continue
				}
				tuples, seqR, seqS, err := e.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				if seqR != nR || seqS != nS {
					t.Fatalf("cores=%d ordered=%v: snapshot at seqs (%d, %d), pushed (%d, %d)",
						cores, ordered, seqR, seqS, nR, nS)
				}
				checkSnapshotImage(t, tuples, workload[:off+batch], window)
			}

			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), workload, *got); err != nil {
				t.Fatalf("cores=%d ordered=%v: results diverged after snapshots: %v", cores, ordered, err)
			}
		}
	}
}

// checkSnapshotImage verifies a snapshot equals a sequential replay of
// the prefix: the last `window` arrivals per side, R before S, ascending.
func checkSnapshotImage(t *testing.T, tuples []core.Input, prefix []core.Input, window int) {
	t.Helper()
	var want []core.Input
	for _, side := range []stream.Side{stream.SideR, stream.SideS} {
		var arr []core.Input
		var seq uint64
		for _, in := range prefix {
			if in.Side != side {
				continue
			}
			in.Tuple.Seq = seq
			seq++
			arr = append(arr, in)
		}
		if len(arr) > window {
			arr = arr[len(arr)-window:]
		}
		want = append(want, arr...)
	}
	if len(tuples) != len(want) {
		t.Fatalf("snapshot has %d tuples, want %d", len(tuples), len(want))
	}
	if !sort.SliceIsSorted(tuples, func(i, j int) bool {
		if tuples[i].Side != tuples[j].Side {
			return tuples[i].Side == stream.SideR
		}
		return tuples[i].Tuple.Seq < tuples[j].Tuple.Seq
	}) {
		t.Fatal("snapshot not in R-before-S ascending-seq order")
	}
	for i := range want {
		if tuples[i] != want[i] {
			t.Fatalf("snapshot tuple %d: %+v, want %+v", i, tuples[i], want[i])
		}
	}
}

// TestUniFlowQuiesceResultsEmitted: at the quiesce boundary, every result
// the pushed input implies has been counted by ResultsEmitted — the exact
// flush target the server's durability barrier spins on.
func TestUniFlowQuiesceResultsEmitted(t *testing.T) {
	leakcheck.Check(t)
	const window, total = 32, 600
	rng := rand.New(rand.NewSource(3))
	workload := randomWorkload(rng, total, 16)

	e, err := NewUniFlow(Config{NumCores: 2, WindowSize: window})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(e.Results())
	for off := 0; off < total; off += 150 {
		e.PushBatch(workload[off : off+150])
		if err := e.Quiesce(); err != nil {
			t.Fatal(err)
		}
		oracle, err := core.NewOracle(window, stream.EquiJoinOnKey())
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Run(workload[:off+150])
		if err != nil {
			t.Fatal(err)
		}
		if n := e.ResultsEmitted(); n != uint64(len(want)) {
			t.Fatalf("after %d tuples: ResultsEmitted %d, oracle has %d", off+150, n, len(want))
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(*got) == 0 {
		t.Fatal("vacuous run: no results")
	}
}

func TestUniFlowSnapshotLifecycle(t *testing.T) {
	leakcheck.Check(t)
	e, err := NewUniFlow(Config{NumCores: 1, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Quiesce(); err == nil {
		t.Fatal("Quiesce before Start must fail")
	}
	if _, _, _, err := e.SnapshotState(); err == nil {
		t.Fatal("SnapshotState before Start must fail")
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range e.Results() {
		}
	}()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Quiesce(); err != nil {
		t.Fatalf("Quiesce after Close must be a no-op, got %v", err)
	}
}
