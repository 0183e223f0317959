package server

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"accelstream/internal/checkpoint"
	"accelstream/internal/core"
	"accelstream/internal/wire"
)

// This file wires the durable-checkpoint subsystem (internal/checkpoint)
// into the session lifecycle:
//
//   - initCheckpoints (New): open the store and load the newest valid
//     snapshot before the listener accepts anything.
//   - takeRestored (handshake): hand the loaded snapshot to the first
//     session whose engine shape matches; the session resumes the
//     engine's BaseSeqR/S from it, imports the window, and tells the
//     client via the OpenAck resume tail. A session that fails before
//     that OpenAck is written hands it back at teardown (putRestored),
//     so the next matching session resumes instead.
//   - cutSnapshot (FrameCheckpoint / FrameRebalancePrepare / the
//     automatic interval / Server.Checkpoint / final teardown): quiesce
//     the live engine at a punctuation boundary and wait until every
//     result the snapshotted input produced has been handed to the
//     connection (so a restored client never misses results it was never
//     sent); every path but the rebalance hand-off then persists.
//
// The result-flush barrier is what makes a snapshot safe to resume from:
// a snapshot only becomes durable after every result implied by its
// input has been written to the socket, so the suffix a client replays
// after restore is the only part of the result stream it can see twice
// (dedupable by Result.PairID) and nothing is ever lost.

// initCheckpoints opens the checkpoint store and loads the newest valid
// snapshot, if Config.CheckpointDir is set.
func (s *Server) initCheckpoints() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	st, err := checkpoint.NewStore(s.cfg.CheckpointDir, s.cfg.CheckpointRetain, s.cfg.Logf)
	if err != nil {
		return err
	}
	s.ckpt = st
	snap, ok, err := st.LatestValid()
	if err != nil {
		return err
	}
	if ok {
		s.restored = &snap
		s.ckptLastNanos.Store(snap.Meta.UnixNanos)
		s.logf("checkpoint: loaded snapshot at seqs (%d, %d), %d window tuples, cut %s ago",
			snap.Meta.SeqR, snap.Meta.SeqS, len(snap.Tuples),
			time.Since(time.Unix(0, snap.Meta.UnixNanos)).Round(time.Millisecond))
	}
	return nil
}

// takeRestored takes the loaded snapshot for a session whose Open
// config matches its shape: same engine kind, window, ordering, and
// shard role, and a client that is not already resuming its own base
// sequence numbers (a shard router redial carries non-zero bases and
// must not be hijacked). Returns nil when there is nothing to restore.
func (s *Server) takeRestored(cfg wire.OpenConfig) *checkpoint.Snapshot {
	if s.ckpt == nil {
		return nil
	}
	s.restoredMu.Lock()
	defer s.restoredMu.Unlock()
	snap := s.restored
	if snap == nil {
		return nil
	}
	if cfg.Engine != wire.EngineSoftUni ||
		snap.Meta.Engine != byte(cfg.Engine) ||
		snap.Meta.Window != cfg.Window ||
		snap.Meta.Ordered != cfg.Ordered ||
		snap.Meta.ShardCount != max(cfg.ShardCount, 1) ||
		snap.Meta.ShardIndex != cfg.ShardIndex ||
		cfg.BaseSeqR != 0 || cfg.BaseSeqS != 0 {
		return nil
	}
	s.restored = nil // taken: a concurrent session starts fresh
	return snap
}

// putRestored hands back a snapshot takeRestored gave a session that
// failed before its client could resume from it.
func (s *Server) putRestored(snap *checkpoint.Snapshot) {
	s.restoredMu.Lock()
	s.restored = snap
	s.restoredMu.Unlock()
}

// flushResults spin-waits until the writer has handed at least target
// results to the connection. Callers quiesce the engine first, so target
// is exact and the pump is guaranteed to reach it (it keeps draining
// even when the socket write fails).
func (s *session) flushResults(target uint64) {
	for s.resultsOut.Load() < target {
		runtime.Gosched()
	}
}

// cutSnapshot quiesces the live engine at the current punctuation
// boundary and returns its window state and transfer summary. Must run
// on the session's read-loop goroutine, under its cutMu, or after the
// read loop has exited: the quiesce requires the single producer to be
// paused.
func (s *session) cutSnapshot() ([]core.Input, wire.RebalanceInfo, error) {
	snap, ok := s.eng.(Snapshotter)
	if !ok {
		return nil, wire.RebalanceInfo{}, fmt.Errorf("engine %v does not support snapshots", s.engCfg.Engine)
	}
	tuples, seqR, seqS, err := snap.SnapshotState()
	if err != nil {
		s.srv.ckptErrors.Add(1)
		return nil, wire.RebalanceInfo{}, err
	}
	// Durability barrier: every result the snapshotted input produced must
	// reach the connection before the snapshot can be trusted — a client
	// that resumes from it replays only the post-snapshot suffix and would
	// otherwise silently lose results.
	s.flushResults(snap.ResultsEmitted())

	info := wire.RebalanceInfo{SeqR: seqR, SeqS: seqS}
	info.Tally(tuples)
	return tuples, info, nil
}

// persistSnapshot writes a cut snapshot to the store. sync selects a
// synchronous write (client-requested and on-demand checkpoints and the
// final teardown snapshot, where the acknowledgement must imply
// durability) and returns the file's size; the automatic interval path
// writes in the background behind a single-flight gate so ingest never
// stalls on fsync.
func (s *session) persistSnapshot(tuples []core.Input, info wire.RebalanceInfo, sync bool) (int, error) {
	file := checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Engine:     byte(s.engCfg.Engine),
			Cores:      s.engCfg.Cores,
			Window:     s.engCfg.Window,
			Ordered:    s.engCfg.Ordered,
			ShardCount: max(s.engCfg.ShardCount, 1),
			ShardIndex: s.engCfg.ShardIndex,
			SeqR:       info.SeqR,
			SeqS:       info.SeqS,
			TuplesR:    info.TuplesR,
			TuplesS:    info.TuplesS,
			UnixNanos:  time.Now().UnixNano(),
		},
		Tuples: tuples,
	}
	if sync {
		return s.srv.writeSnapshot(file)
	}
	// Background write: the tuple slice is freshly collected by
	// SnapshotState, so the engine never touches it again.
	if !s.srv.ckptWriting.CompareAndSwap(false, true) {
		s.srv.ckptSkipped.Add(1)
		return 0, nil
	}
	go func() {
		defer s.srv.ckptWriting.Store(false)
		s.srv.writeSnapshot(file)
	}()
	return 0, nil
}

// SessionCheckpoint is one session's outcome of Server.Checkpoint.
type SessionCheckpoint struct {
	// Session is the server-assigned session identifier.
	Session uint64
	// Cut is the arrival counters the snapshot was cut at and the window
	// tuples it holds per side.
	Cut wire.RebalanceInfo
	// Bytes is the file's size.
	Bytes int
	// Took is the wall time from the cut's start to the file's sync.
	Took time.Duration
	// Err is why the cut or the write failed; nil on success.
	Err error
}

// checkpointNow cuts and persists a snapshot for the automatic-interval
// ("auto"), on-demand ("admin") and final-teardown ("final") paths,
// logging a failed cut under that name. An engine without snapshots has
// nothing to cut, and ok is false.
func (s *session) checkpointNow(sync bool, what string) (c SessionCheckpoint, ok bool) {
	if _, ok := s.eng.(Snapshotter); !ok {
		return c, false
	}
	start := time.Now()
	c.Session = s.id
	tuples, info, err := s.cutSnapshot()
	if err != nil {
		s.srv.logf("session %d: %s checkpoint: %v", s.id, what, err)
	} else {
		c.Cut = info
		c.Bytes, err = s.persistSnapshot(tuples, info, sync)
	}
	c.Took, c.Err = time.Since(start), err
	return c, true
}

// Checkpoint cuts and synchronously persists a snapshot of every session
// whose read loop is serving, through the path the automatic interval
// takes: the cut runs with the session's producer paused between frames,
// and the file is written only once every result the cut input produced
// has reached the connection. A session whose read loop has not started
// holds none of its client's input yet, and one whose read loop has
// returned is covered by its final checkpoint; both are skipped.
// Outcomes come in session order. It fails only when the server has no
// checkpoint store.
func (s *Server) Checkpoint() ([]SessionCheckpoint, error) {
	if s.ckpt == nil {
		return nil, errors.New("server: checkpoints need Config.CheckpointDir")
	}
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	var out []SessionCheckpoint
	for _, sess := range live {
		sess.cutMu.Lock()
		if sess.serving {
			if c, ok := sess.checkpointNow(true, "admin"); ok {
				out = append(out, c)
			}
		}
		sess.cutMu.Unlock()
	}
	return out, nil
}

// serveCut serves a Checkpoint or RebalancePrepare frame: cut the
// snapshot, persist it durably when persist is set and this server has a
// checkpoint store, and stream the window state back to the client as
// StateChunk frames — a shard router assembling a coordinated all-shard
// snapshot, or a rebalance coordinator re-slicing the window, consumes
// them. The caller sends the CheckpointDone frame with the returned
// summary.
func (s *session) serveCut(persist bool) (wire.RebalanceInfo, error) {
	tuples, info, err := s.cutSnapshot()
	if err != nil {
		return wire.RebalanceInfo{}, err
	}
	if persist && s.srv.ckpt != nil {
		s.persistSnapshot(tuples, info, true)
	}
	if err := s.send(func(w *wire.Writer) error { return w.WriteState(tuples) }); err != nil {
		return wire.RebalanceInfo{}, fmt.Errorf("writing state chunk: %w", err)
	}
	return info, nil
}

// writeSnapshot persists one snapshot, updates the metrics and returns
// the file's size.
func (s *Server) writeSnapshot(file checkpoint.Snapshot) (int, error) {
	start := time.Now()
	n, err := s.ckpt.Write(file)
	if err != nil {
		s.ckptErrors.Add(1)
		s.logf("checkpoint: write failed: %v", err)
		return 0, err
	}
	s.ckptTotal.Add(1)
	s.ckptLastNanos.Store(file.Meta.UnixNanos)
	s.ckptLastBytes.Store(uint64(n))
	s.ckptLastDur.Store(time.Since(start).Nanoseconds())
	s.logf("checkpoint: wrote %d bytes at seqs (%d, %d), %d window tuples, in %v",
		n, file.Meta.SeqR, file.Meta.SeqS, len(file.Tuples), time.Since(start).Round(time.Microsecond))
	return n, nil
}

// maybeAutoCheckpoint cuts a background snapshot when the configured
// interval has elapsed since the last one this session took. Called from
// the read loop after each batch, so every automatic snapshot sits at a
// batch (punctuation) boundary.
func (s *session) maybeAutoCheckpoint() {
	if s.srv.ckpt == nil || s.srv.cfg.CheckpointInterval <= 0 {
		return
	}
	now := time.Now()
	if !s.lastCkpt.IsZero() && now.Sub(s.lastCkpt) < s.srv.cfg.CheckpointInterval {
		return
	}
	s.lastCkpt = now
	s.checkpointNow(false, "auto")
}

// finalCheckpoint writes one last synchronous snapshot at session
// teardown, after the read loop and before the engine closes: no batch
// follows, so the cut is the terminal state. This is what a SIGTERM drain
// persists. Skipped when the session handed its state to a rebalance
// coordinator (the window now lives elsewhere) or ingested nothing.
func (s *session) finalCheckpoint(handOff bool) {
	if s.srv.ckpt == nil || handOff || s.in.tuplesIn.Load() == 0 {
		return
	}
	s.checkpointNow(true, "final")
}
