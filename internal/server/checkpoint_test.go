package server

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
	"accelstream/internal/workload"
)

// streamInputs pushes inputs through the client in fixed-size batches.
func streamInputs(t *testing.T, c *Client, inputs []core.Input, batch int) {
	t.Helper()
	for off := 0; off < len(inputs); off += batch {
		end := off + batch
		if end > len(inputs) {
			end = len(inputs)
		}
		if err := c.SendBatch(inputs[off:end]); err != nil {
			t.Fatalf("SendBatch at %d: %v", off, err)
		}
	}
}

// copyDir copies the checkpoint files of src into a fresh directory —
// the disk image a kill -9 at that instant would leave behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCheckpointRestartReplaysOnlySuffix is the subsystem's end-to-end
// acceptance test: a session streams a window fill, cuts a durable
// snapshot, streams more, and the server "crashes" (only the snapshot
// survives). A fresh server restores the snapshot before accepting the
// session, the client resumes at the snapshot's arrival counters, replays
// only the post-snapshot suffix, and the union of pre-crash results and
// replayed results must equal the oracle exactly (deduped by PairID).
func TestCheckpointRestartReplaysOnlySuffix(t *testing.T) {
	const window, fill, suffix, batch = 256, 1024, 300, 128
	dir := t.TempDir()
	_, addr := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1})

	gen, err := workload.NewGenerator(workload.Spec{Seed: 7, KeyDomain: window})
	if err != nil {
		t.Fatal(err)
	}
	inputs := gen.Take(fill + suffix)
	cfg := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window}

	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Resumed(); ok {
		t.Fatal("fresh server claimed a resume")
	}
	var pre []stream.Result
	done := make(chan struct{})
	go drainAll(c, &pre, done)
	streamInputs(t, c, inputs[:fill], batch)
	tuples, info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tuples)) != info.TuplesR+info.TuplesS {
		t.Fatalf("checkpoint returned %d tuples, summary says %d", len(tuples), info.TuplesR+info.TuplesS)
	}
	preCount := int(c.ResultsReceived())
	crashDir := copyDir(t, dir) // the kill -9 disk image
	streamInputs(t, c, inputs[fill:], batch)
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if preCount == 0 || preCount == len(pre) {
		t.Fatalf("vacuous split: %d of %d results pre-snapshot", preCount, len(pre))
	}

	// Restart on the crash image.
	srv2, addr2 := startServer(t, Config{CheckpointDir: crashDir, CheckpointInterval: -1})
	c2, err := Dial(addr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqR, seqS, ok := c2.Resumed()
	if !ok || seqR != info.SeqR || seqS != info.SeqS {
		t.Fatalf("resumed=%v at (%d, %d), snapshot cut at (%d, %d)", ok, seqR, seqS, info.SeqR, info.SeqS)
	}
	var replayed []stream.Result
	done2 := make(chan struct{})
	go drainAll(c2, &replayed, done2)
	// Replay only the post-snapshot suffix, skipping seqR R / seqS S tuples.
	var r, s uint64
	replayFrom := -1
	for i := range inputs {
		if r >= seqR && s >= seqS {
			replayFrom = i
			break
		}
		if inputs[i].Side == stream.SideR {
			r++
		} else {
			s++
		}
	}
	if replayFrom != fill {
		t.Fatalf("resume point maps to input %d, snapshot was cut after %d", replayFrom, fill)
	}
	streamInputs(t, c2, inputs[replayFrom:], batch)
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	<-done2

	// Exactly-once across the crash: pre-snapshot results ∪ replayed
	// results = oracle, with no overlap (dedup by PairID finds none).
	merged := append(append([]stream.Result(nil), pre[:preCount]...), replayed...)
	seen := make(map[uint64]struct{}, len(merged))
	for _, res := range merged {
		id := res.PairID()
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate result across the crash boundary: %+v", res)
		}
		seen[id] = struct{}{}
	}
	if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, merged); err != nil {
		t.Fatalf("merged results diverge from oracle: %v", err)
	}

	// Restore metrics: the second server counted the install.
	cs := srv2.ProcessStats().Checkpoints
	if !cs.Enabled || cs.Restores != 1 || cs.RestoredTuples != uint64(len(tuples)) {
		t.Fatalf("restore metrics: %+v", cs)
	}
}

// TestAutoCheckpointInterval: with a tiny interval, snapshots appear
// without any client request, at batch boundaries, and the metrics count
// them.
func TestAutoCheckpointInterval(t *testing.T) {
	const window, total, batch = 128, 4096, 64
	dir := t.TempDir()
	srv, addr := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: time.Millisecond})

	gen, err := workload.NewGenerator(workload.Spec{Seed: 11, KeyDomain: window})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	var got []stream.Result
	done := make(chan struct{})
	go drainAll(c, &got, done)
	for i := 0; i < total/batch; i++ {
		if err := c.SendBatch(gen.Take(batch)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let the interval elapse between batches
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	deadline := time.Now().Add(5 * time.Second)
	for {
		cs := srv.ProcessStats().Checkpoints
		if cs.Written >= 2 && cs.LastBytes > 0 && cs.LastUnixNanos > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto checkpoints never appeared: %+v", cs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			files++
		}
	}
	if files == 0 {
		t.Fatal("no snapshot files on disk")
	}
	if files > 3 {
		t.Fatalf("retention did not prune: %d files", files)
	}
}

// TestFinalCheckpointOnAbort: when the client connection dies mid-stream
// (the producer crashed), the surviving server still persists a final
// snapshot at teardown — the drain path a SIGTERM relies on.
func TestFinalCheckpointOnAbort(t *testing.T) {
	const window = 64
	dir := t.TempDir()
	srv, addr := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1})

	gen, err := workload.NewGenerator(workload.Spec{Seed: 13, KeyDomain: window})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Results() {
		}
	}()
	if err := c.SendBatch(gen.Take(256)); err != nil {
		t.Fatal(err)
	}
	c.conn.Close() // producer crash: no Close frame, just a dead socket

	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.ProcessStats().Checkpoints.Written == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no final snapshot after abort: %+v", srv.ProcessStats().Checkpoints)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestoreSkippedOnConfigMismatch: a snapshot only restores into a
// session with the same engine shape; a different window gets a fresh
// engine and no resume tail.
func TestRestoreSkippedOnConfigMismatch(t *testing.T) {
	const window = 64
	dir := t.TempDir()
	_, addr := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1})
	gen, err := workload.NewGenerator(workload.Spec{Seed: 17, KeyDomain: window})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Results() {
		}
	}()
	if err := c.SendBatch(gen.Take(200)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, addr2 := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1})
	c2, err := Dial(addr2, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 2 * window})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c2.Resumed(); ok {
		t.Fatal("snapshot restored into a session with a different window")
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if cs := srv2.ProcessStats().Checkpoints; cs.Restores != 0 {
		t.Fatalf("restore counted despite mismatch: %+v", cs)
	}
}

// TestCheckpointMetricsExposition: the /metrics endpoint carries the
// build-info and checkpoint families when checkpoints are enabled.
func TestCheckpointMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1})
	gen, err := workload.NewGenerator(workload.Spec{Seed: 19, KeyDomain: 64})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Results() {
		}
	}()
	if err := c.SendBatch(gen.Take(128)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, family := range []string{
		"streamd_build_info{version=",
		"streamd_checkpoints_written_total",
		"streamd_checkpoint_age_seconds",
		"streamd_checkpoint_last_bytes",
		"streamd_checkpoint_restores_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics missing %q", family)
		}
	}
}

// TestCheckpointKeepsSecretsOffDisk: a snapshot's manifest is the
// session's Open without its credentials. A server run with an auth
// token (Config.AuthToken, the streamd -auth-token flag), serving a
// named tenant, writes neither string into its snapshot files, and a
// restarted server under another token restores the snapshot into a
// session whose Open differs only in token and tenant.
func TestCheckpointKeepsSecretsOffDisk(t *testing.T) {
	const window, token, tenant = 64, "tok-7f3a9c-secret", "acme.prod-eu"
	dir := t.TempDir()
	_, addr := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1, AuthToken: token})
	gen, err := workload.NewGenerator(workload.Spec{Seed: 23, KeyDomain: window})
	if err != nil {
		t.Fatal(err)
	}
	cfg := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: window, AuthToken: token, Tenant: tenant}
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range c.Results() {
		}
	}()
	if err := c.SendBatch(gen.Take(200)); err != nil {
		t.Fatal(err)
	}
	_, info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, secret := range []string{token, tenant} {
			if bytes.Contains(data, []byte(secret)) {
				t.Fatalf("%s carries %q", e.Name(), secret)
			}
		}
		files++
	}
	if files == 0 {
		t.Fatal("no snapshot files on disk")
	}

	const token2 = "another-token"
	_, addr2 := startServer(t, Config{CheckpointDir: dir, CheckpointInterval: -1, AuthToken: token2})
	cfg.AuthToken, cfg.Tenant = token2, "other.tenant"
	c2, err := Dial(addr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seqR, seqS, ok := c2.Resumed(); !ok || seqR != info.SeqR || seqS != info.SeqS {
		t.Fatalf("resumed=%v at (%d, %d), snapshot cut at (%d, %d)", ok, seqR, seqS, info.SeqR, info.SeqS)
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}
