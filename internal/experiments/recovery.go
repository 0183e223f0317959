package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// recoveryParams sizes the crash-recovery measurement.
type recoveryParams struct {
	windows []int // per-stream window sizes swept
	suffix  int   // post-snapshot tuples the producer must replay after a crash
	batch   int   // tuples per batch frame
}

// Recovery is an extension experiment for the paper's Section V
// limitation that accelerator window state lives in volatile device
// memory: it measures what a cold restart actually costs with and
// without the durable-checkpoint subsystem (internal/checkpoint), as a
// function of window size.
//
// For each window size the run streams a window fill plus a short
// suffix against a checkpoint-enabled server, cuts a durable snapshot at
// the fill boundary, and "crashes" by discarding the live process while
// keeping only the mid-stream snapshot on disk — exactly the state a
// kill -9 leaves behind. It then measures two restarts to the same
// oracle-equal result set:
//
//   - checkpointed: a fresh server restores the snapshot before its
//     listener accepts the session, the client resumes at the snapshot's
//     arrival counters, and only the post-snapshot suffix is replayed;
//   - cold: a fresh server starts empty and the producer must replay the
//     entire history to rebuild the window.
//
// The gap between the two curves is the window-refill time the
// checkpoint eliminates; it grows linearly with the window while the
// checkpointed restart stays flat at the suffix-replay cost.
func Recovery(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "recovery",
		Title:  "Extension: cold-restart-to-oracle-equal time vs window size, with and without durable checkpoints",
		XLabel: "per-stream window (tuples)",
		YLabel: "ms · bytes · x",
	}
	p := recoveryParams{
		windows: []int{1 << 12, 1 << 14, 1 << 16},
		suffix:  2048,
		batch:   512,
	}
	if opt.Quick {
		p = recoveryParams{windows: []int{1 << 10, 1 << 12}, suffix: 512, batch: 256}
	}

	restored := Series{Label: "checkpointed restart (ms)"}
	cold := Series{Label: "cold restart, full replay (ms)"}
	speedup := Series{Label: "speedup (cold / checkpointed)"}
	size := Series{Label: "snapshot size (bytes)"}
	replayed := Series{Label: "tuples replayed after restore"}

	for _, w := range p.windows {
		r, err := recoveryOne(opt, w, p.suffix, p.batch)
		if err != nil {
			return Figure{}, fmt.Errorf("experiments: recovery at window %d: %w", w, err)
		}
		x := float64(w)
		restored.Points = append(restored.Points, Point{X: x, Y: float64(r.restore.Microseconds()) / 1000})
		cold.Points = append(cold.Points, Point{X: x, Y: float64(r.cold.Microseconds()) / 1000})
		sp := 0.0
		if r.restore > 0 {
			sp = float64(r.cold) / float64(r.restore)
		}
		speedup.Points = append(speedup.Points, Point{X: x, Y: sp})
		size.Points = append(size.Points, Point{X: x, Y: float64(r.snapshotBytes)})
		replayed.Points = append(replayed.Points, Point{X: x, Y: float64(r.replayed)})
	}

	fig.Series = append(fig.Series, restored, cold, speedup, size, replayed)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%d post-snapshot tuples replayed after every crash, batches of %d over loopback TCP; both restarts verified oracle-equal by Result.PairID against the pre-crash run", p.suffix, p.batch),
		"checkpointed restart = dial (the server installs the snapshot before acknowledging) + suffix replay; cold restart = dial + full-history replay to refill the window",
		"the paper's FPGA/NIC designs hold window state in volatile device memory (Section V); this is the restart cost that limitation implies, and what a host-side durable snapshot buys back")
	return fig, nil
}

type recoveryResult struct {
	restore, cold time.Duration
	snapshotBytes int64
	replayed      int
}

// recoveryOne runs the crash-and-restart cycle for one window size.
func recoveryOne(opt Options, window, suffix, batch int) (recoveryResult, error) {
	liveDir, err := os.MkdirTemp("", "accelstream-recovery-live-")
	if err != nil {
		return recoveryResult{}, err
	}
	defer os.RemoveAll(liveDir)
	crashDir, err := os.MkdirTemp("", "accelstream-recovery-crash-")
	if err != nil {
		return recoveryResult{}, err
	}
	defer os.RemoveAll(crashDir)

	gen, err := workload.NewGenerator(workload.Spec{Seed: opt.Seed, KeyDomain: window})
	if err != nil {
		return recoveryResult{}, err
	}
	fill := 2 * window // ~window tuples per side
	inputs := make([]core.Input, 0, fill+suffix)
	for len(inputs) < fill+suffix {
		n := batch
		if rest := fill + suffix - len(inputs); n > rest {
			n = rest
		}
		inputs = append(inputs, gen.Take(n)...)
	}
	cfg := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window}

	// Pre-crash run: fill the window, cut a durable snapshot, stream the
	// suffix, and keep every result as the oracle.
	live, addrs, err := startServers(1, server.Config{CheckpointDir: liveDir, CheckpointInterval: -1})
	if err != nil {
		return recoveryResult{}, err
	}
	defer stopServers(live)
	c, err := server.Dial(addrs[0], cfg)
	if err != nil {
		return recoveryResult{}, err
	}
	var oracle []stream.Result
	drained := make(chan struct{})
	go func() {
		for res := range c.Results() {
			oracle = append(oracle, res)
		}
		close(drained)
	}()
	if err := sendAll(c, inputs[:fill], batch); err != nil {
		return recoveryResult{}, err
	}
	_, info, err := c.Checkpoint()
	if err != nil {
		return recoveryResult{}, fmt.Errorf("cutting snapshot: %w", err)
	}
	preCount := int(c.ResultsReceived()) // exact: all pre-snapshot results precede CheckpointDone
	snapBytes, err := copyCheckpointDir(liveDir, crashDir)
	if err != nil {
		return recoveryResult{}, err
	}
	if err := sendAll(c, inputs[fill:], batch); err != nil {
		return recoveryResult{}, err
	}
	if _, err := c.Close(); err != nil {
		return recoveryResult{}, err
	}
	<-drained
	stopServers(live)
	if len(oracle) == 0 || preCount == 0 || len(oracle) == preCount {
		return recoveryResult{}, fmt.Errorf("vacuous run: %d results, %d pre-snapshot", len(oracle), preCount)
	}
	oracleIDs := make(map[uint64]struct{}, len(oracle))
	for _, res := range oracle {
		oracleIDs[res.PairID()] = struct{}{}
	}
	preIDs := make(map[uint64]struct{}, preCount)
	for _, res := range oracle[:preCount] {
		preIDs[res.PairID()] = struct{}{}
	}

	// Checkpointed restart: only the crash-time snapshot survives; the
	// fresh server restores it before accepting the session, and the
	// producer replays just the post-snapshot suffix.
	restoreDur, replayCount, err := runRestart(crashDir, cfg, inputs, batch, len(oracle)-preCount, func(ids map[uint64]struct{}) error {
		for id := range ids {
			if _, ok := oracleIDs[id]; !ok {
				return fmt.Errorf("replayed result not in oracle")
			}
			if _, ok := preIDs[id]; ok {
				return fmt.Errorf("replayed a pre-snapshot result; resume point wrong")
			}
		}
		return nil
	}, info)
	if err != nil {
		return recoveryResult{}, fmt.Errorf("checkpointed restart: %w", err)
	}

	// Cold restart: nothing survives; the full history must be replayed.
	coldDur, _, err := runRestart("", cfg, inputs, batch, len(oracle), func(ids map[uint64]struct{}) error {
		if len(ids) != len(oracleIDs) {
			return fmt.Errorf("cold replay produced %d distinct results, oracle has %d", len(ids), len(oracleIDs))
		}
		for id := range ids {
			if _, ok := oracleIDs[id]; !ok {
				return fmt.Errorf("cold-replay result not in oracle")
			}
		}
		return nil
	}, wire.RebalanceInfo{})
	if err != nil {
		return recoveryResult{}, fmt.Errorf("cold restart: %w", err)
	}

	return recoveryResult{restore: restoreDur, cold: coldDur, snapshotBytes: snapBytes, replayed: replayCount}, nil
}

// runRestart boots a fresh server (restoring from ckptDir when non-empty),
// dials it, replays the required portion of the recorded input, and times
// dial-to-last-expected-result. verify receives the distinct PairIDs the
// restart produced.
func runRestart(ckptDir string, cfg wire.OpenConfig, inputs []core.Input, batch, expect int, verify func(map[uint64]struct{}) error, want wire.RebalanceInfo) (time.Duration, int, error) {
	scfg := server.Config{CheckpointInterval: -1}
	if ckptDir != "" {
		scfg.CheckpointDir = ckptDir
	}
	srvs, addrs, err := startServers(1, scfg)
	if err != nil {
		return 0, 0, err
	}
	defer stopServers(srvs)

	start := time.Now()
	c, err := server.Dial(addrs[0], cfg)
	if err != nil {
		return 0, 0, err
	}
	ids := make(map[uint64]struct{}, expect)
	got := make(chan error, 1)
	go func() {
		for res := range c.Results() {
			ids[res.PairID()] = struct{}{}
			if len(ids) == expect {
				got <- nil
				// Keep draining so Close never blocks on a full channel.
				for range c.Results() {
				}
				return
			}
		}
		got <- fmt.Errorf("results closed after %d of %d expected", len(ids), expect)
	}()

	replay := inputs
	if ckptDir != "" {
		seqR, seqS, ok := c.Resumed()
		if !ok {
			return 0, 0, fmt.Errorf("server did not restore the snapshot")
		}
		if seqR != want.SeqR || seqS != want.SeqS {
			return 0, 0, fmt.Errorf("resumed at (%d, %d), snapshot cut at (%d, %d)", seqR, seqS, want.SeqR, want.SeqS)
		}
		replay = replaySuffix(inputs, seqR, seqS)
	}
	if err := sendAll(c, replay, batch); err != nil {
		return 0, 0, err
	}
	select {
	case err := <-got:
		if err != nil {
			return 0, 0, err
		}
	case <-time.After(2 * time.Minute):
		return 0, 0, fmt.Errorf("timed out waiting for %d results", expect)
	}
	dur := time.Since(start)
	if _, err := c.Close(); err != nil {
		return 0, 0, err
	}
	return dur, len(replay), verify(ids)
}

// replaySuffix returns the portion of the recorded input a resumed
// producer must replay: everything past the first seqR R-tuples and seqS
// S-tuples, in the original arrival order.
func replaySuffix(inputs []core.Input, seqR, seqS uint64) []core.Input {
	var r, s uint64
	for i := range inputs {
		if r >= seqR && s >= seqS {
			return inputs[i:]
		}
		if inputs[i].Side == stream.SideR {
			r++
		} else {
			s++
		}
	}
	return nil
}

// copyCheckpointDir copies every snapshot file from src to dst (the
// crash-surviving disk image) and returns the bytes copied.
func copyCheckpointDir(src, dst string) (int64, error) {
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	copied := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return 0, err
		}
		total += int64(len(data))
		copied++
	}
	if copied == 0 {
		return 0, fmt.Errorf("no snapshot files in %s", src)
	}
	return total, nil
}
