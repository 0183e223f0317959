// Package checkpoint implements durable window snapshots: a file holding a
// join engine's full sliding-window state together with the global
// sequence numbers that position it in the input streams, plus a Store
// that writes snapshots atomically (temp-file + rename), retains the last
// K, and restores the newest valid one after a crash.
//
// The paper's join nodes keep the entire window in volatile device memory
// (FPGA BRAM, GPU device RAM); a node loss forfeits the window and the
// operator degrades until it refills. A snapshot makes that state
// relocatable across process lifetimes; the rebalance hand-off streams
// the same cut to relocate it across nodes. Either way the tuples are
// tagged with global arrival sequence numbers, so a restarted engine
// resumes counting where the snapshot stopped and clients replay only the
// post-snapshot suffix.
//
// A snapshot file is that state stream, in internal/wire's frames:
//
//	magic           "ACSCKPT2"   8 bytes
//	Open            the manifest: engine shape, BaseSeqR/S = the cut's arrival counters
//	StateChunk …    the window tuples, at most wire.MaxStateChunk per frame
//	CheckpointDone  the footer: per-side tuple counts and arrival counters
//
// The manifest never carries an auth token or tenant. A reader accepts a
// file only when every frame's CRC matches, the manifest comes first and
// the footer last, and the footer agrees with both the manifest and the
// chunks — so torn, truncated, or bit-flipped files are rejected as a unit
// and the loader falls back to the previous snapshot.
package checkpoint

import (
	"bytes"
	"fmt"
	"io"

	"accelstream/internal/core"
	"accelstream/internal/wire"
)

// Magic identifies a checkpoint file and its layout generation; a file
// of any other generation is rejected like a corrupt one.
const Magic = "ACSCKPT2"

// Meta describes the engine a snapshot was taken from and where in the
// global input streams it stops. Restore refuses a snapshot whose shape
// does not match the session asking for it.
type Meta struct {
	Engine     byte   // wire.EngineKind of the engine that produced it
	Cores      int    // engine parallelism (informational; restore may differ)
	Window     int    // total window size the snapshot was cut at
	Ordered    bool   // engine ran with ordered result emission
	ShardCount int    // 0 or 1 = unsharded; >1 = residue-class member
	ShardIndex int    // this node's residue class when sharded
	SeqR       uint64 // R tuples consumed by the engine at the snapshot point
	SeqS       uint64 // S tuples consumed at the snapshot point
	TuplesR    uint64 // R tuples resident in the window (Encode counts them)
	TuplesS    uint64 // S tuples resident in the window (Encode counts them)
	UnixNanos  int64  // wall-clock cut time (staleness gauge); kept in the file name
}

// Snapshot is a decoded checkpoint: the manifest plus every window tuple,
// R and S interleaved in ascending global sequence order per side.
type Snapshot struct {
	Meta   Meta
	Tuples []core.Input
}

// Encode serialises a snapshot into the on-disk format.
func Encode(s Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encode writes the magic and the snapshot's state stream to w.
func encode(w io.Writer, s Snapshot) error {
	m := s.Meta
	done := wire.RebalanceInfo{SeqR: m.SeqR, SeqS: m.SeqS}
	done.Tally(s.Tuples)
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	fw := wire.NewWriter(w)
	if err := fw.WriteOpen(wire.OpenConfig{
		Engine: wire.EngineKind(m.Engine), Cores: m.Cores, Window: m.Window, Ordered: m.Ordered,
		ShardCount: m.ShardCount, ShardIndex: m.ShardIndex, BaseSeqR: m.SeqR, BaseSeqS: m.SeqS,
	}); err != nil {
		return err
	}
	if err := fw.WriteState(s.Tuples); err != nil {
		return err
	}
	return fw.WriteCheckpointDone(done)
}

// Decode parses and fully validates a checkpoint file image. Any framing,
// CRC, bound, or cross-frame consistency failure rejects the whole file.
func Decode(data []byte) (Snapshot, error) {
	return decode(bytes.NewReader(data))
}

// decode reads one checkpoint file from r. The tuple slice grows only as
// chunks arrive, so what a file declares costs nothing until its chunks
// are actually there.
func decode(r io.Reader) (Snapshot, error) {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || string(magic[:]) != Magic {
		return Snapshot{}, fmt.Errorf("checkpoint: bad magic")
	}
	fr := wire.NewReader(r)
	f, err := fr.ReadFrame()
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if f.Type != wire.FrameOpen {
		return Snapshot{}, fmt.Errorf("checkpoint: %v frame where the manifest belongs", f.Type)
	}
	cfg, err := wire.DecodeOpen(f.Payload)
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	snap := Snapshot{Meta: Meta{
		Engine: byte(cfg.Engine), Cores: cfg.Cores, Window: cfg.Window, Ordered: cfg.Ordered,
		ShardCount: cfg.ShardCount, ShardIndex: cfg.ShardIndex, SeqR: cfg.BaseSeqR, SeqS: cfg.BaseSeqS,
	}}
	m := &snap.Meta
	var got wire.RebalanceInfo
	for {
		if f, err = fr.ReadFrame(); err != nil {
			return Snapshot{}, fmt.Errorf("checkpoint: before the footer: %w", err)
		}
		switch f.Type {
		case wire.FrameStateChunk:
			tuples, err := wire.DecodeStateChunk(f.Payload)
			if err != nil {
				return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
			}
			// The window bound is per side: a full engine holds Window
			// tuples of R and Window tuples of S.
			got.Tally(tuples)
			if got.TuplesR > uint64(m.Window) || got.TuplesS > uint64(m.Window) {
				return Snapshot{}, fmt.Errorf("checkpoint: resident tuples (%d R, %d S) exceed per-side window %d", got.TuplesR, got.TuplesS, m.Window)
			}
			snap.Tuples = append(snap.Tuples, tuples...)
		case wire.FrameCheckpointDone:
			done, err := wire.DecodeCheckpointDone(f.Payload)
			if err != nil {
				return Snapshot{}, fmt.Errorf("checkpoint: footer: %w", err)
			}
			got.SeqR, got.SeqS = m.SeqR, m.SeqS
			if done != got {
				return Snapshot{}, fmt.Errorf("checkpoint: footer %+v disagrees with the manifest and chunks %+v", done, got)
			}
			if got.TuplesR > got.SeqR || got.TuplesS > got.SeqS {
				return Snapshot{}, fmt.Errorf("checkpoint: resident tuples exceed consumed seqs")
			}
			// ReadFrame returns io.EOF bare only at a frame boundary; a
			// torn trailing frame wraps it, so errors.Is would accept one.
			if _, err := fr.ReadFrame(); err != io.EOF {
				return Snapshot{}, fmt.Errorf("checkpoint: data after footer")
			}
			m.TuplesR, m.TuplesS = got.TuplesR, got.TuplesS
			return snap, nil
		default:
			return Snapshot{}, fmt.Errorf("checkpoint: unexpected %v frame", f.Type)
		}
	}
}
