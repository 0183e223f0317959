package rebalance

import (
	"context"
	"maps"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"accelstream/internal/checkpoint"
	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
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

// TestRunRoundTripWritesNoSnapshot resizes a live stream 2 → 3 → 2 over
// in-process servers that each have a checkpoint store. The merged
// results stay oracle-equal, and the hand-off writes no snapshot on the
// shards it drains — neither at the cut nor at their close. The graceful
// close at the end is the positive control: it does write one.
func TestRunRoundTripWritesNoSnapshot(t *testing.T) {
	const (
		window  = 120 // splits evenly over 2 and 3 shards of 2 cores
		cores   = 2
		tuples  = 3000
		batchSz = 50
	)
	srvs := make([]*server.Server, 5)
	addrs := make([]string, 5)
	dirs := make([]string, 5)
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i], addrs[i] = startCheckpointServer(t, dirs[i])
	}
	gen, err := workload.NewGenerator(workload.Spec{Seed: 41, KeyDomain: 48})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(tuples)

	var mu sync.Mutex
	var results []stream.Result
	var drains sync.WaitGroup
	drain := func(c *server.Client) {
		drains.Add(1)
		go func() {
			defer drains.Done()
			for res := range c.Results() {
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	var seqR, seqS uint64
	send := func(clients []*server.Client, part []core.Input) {
		for off := 0; off < len(part); off += batchSz {
			batch := part[off : off+batchSz]
			for _, c := range clients {
				if err := c.SendBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			for _, in := range batch {
				if in.Side == stream.SideR {
					seqR++
				} else {
					seqS++
				}
			}
		}
	}
	resize := func(old []*server.Client, oldAddrs, newAddrs []string) []*server.Client {
		t.Helper()
		clients, rep, err := Run(Config{
			OldClients: old, OldAddrs: oldAddrs, NewAddrs: newAddrs,
			Window: window, Cores: cores, SeqR: seqR, SeqS: seqS, Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("rebalance %d → %d: %v", len(oldAddrs), len(newAddrs), err)
		}
		if rep.Aborted || rep.SlicesLost != 0 || rep.TuplesMigrated == 0 {
			t.Fatalf("rebalance %d → %d: report %+v", len(oldAddrs), len(newAddrs), rep)
		}
		for _, c := range clients {
			drain(c)
		}
		return clients
	}

	layout := make([]*server.Client, 2)
	for i := range layout {
		c, err := server.Dial(addrs[i], wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: cores,
			Window: window / 2, ShardCount: 2, ShardIndex: i})
		if err != nil {
			t.Fatal(err)
		}
		layout[i] = c
		drain(c)
	}
	send(layout, inputs[:tuples/3])
	layout = resize(layout, addrs[:2], addrs[2:5])
	assertNoSnapshot(t, srvs[:2], dirs[:2])
	send(layout, inputs[tuples/3:2*tuples/3])
	layout = resize(layout, addrs[2:5], addrs[:2])
	assertNoSnapshot(t, srvs[2:5], dirs[2:5])
	send(layout, inputs[2*tuples/3:])
	for _, c := range layout {
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	drains.Wait()

	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if n := srvs[i].ProcessStats().Checkpoints.Written; n == 0 {
			t.Errorf("server %d wrote no snapshot at a graceful close: the store check above proves nothing", i)
		}
	}
}

// startCheckpointServer launches a server with a checkpoint store in dir
// on a loopback listener, shut down at cleanup. Interval snapshots are off,
// so every snapshot the store holds was cut by a session's cut or close.
func startCheckpointServer(t *testing.T, dir string) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(server.Config{CheckpointDir: dir, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// assertNoSnapshot checks that drained shards neither counted nor stored a
// snapshot.
func assertNoSnapshot(t *testing.T, srvs []*server.Server, dirs []string) {
	t.Helper()
	for i, srv := range srvs {
		if st := srv.ProcessStats().Checkpoints; st.Written != 0 || st.Errors != 0 {
			t.Errorf("drained shard %d: checkpoint stats %+v, want none written", i, st)
		}
		store, err := checkpoint.NewStore(dirs[i], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := store.LatestValid(); ok || err != nil {
			t.Errorf("drained shard %d: store holds a snapshot (ok=%v, err=%v)", i, ok, err)
		}
	}
}
