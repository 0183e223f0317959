package wire

import (
	"encoding/binary"
	"fmt"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// stateTupleWireMax is the widest encoding of one StateChunk tuple: side
// byte, key, val, and a maximal sequence uvarint.
const stateTupleWireMax = tupleWire + binary.MaxVarintLen64

// WriteRebalancePrepare emits a RebalancePrepare (quiesce-and-export
// request) frame. It carries no payload: the punctuation boundary is the
// frame's position in the stream — every Batch frame written before it is
// reflected in the exported state, nothing after it is.
func (w *Writer) WriteRebalancePrepare() error {
	return w.writeFrame(FrameRebalancePrepare, w.scratch(0))
}

// WriteStateChunk emits a StateChunk frame: a uvarint tuple count followed
// by side-tagged tuples that, unlike Batch tuples, carry their per-side
// arrival sequence numbers — the residue class and window position of a
// migrated tuple are both functions of its arrival index, so the receiver
// needs it to re-slice correctly.
func (w *Writer) WriteStateChunk(tuples []core.Input) error {
	if len(tuples) > MaxStateChunk {
		return fmt.Errorf("wire: state chunk of %d tuples exceeds limit %d", len(tuples), MaxStateChunk)
	}
	b := w.scratch(binary.MaxVarintLen64 + len(tuples)*stateTupleWireMax)
	b = appendUvarint(b, uint64(len(tuples)))
	for i := range tuples {
		b = append(b, byte(tuples[i].Side))
		b = appendU32(b, tuples[i].Tuple.Key)
		b = appendU32(b, tuples[i].Tuple.Val)
		b = appendUvarint(b, tuples[i].Tuple.Seq)
	}
	return w.writeFrame(FrameStateChunk, b)
}

// WriteState emits tuples as consecutive StateChunk frames of at most
// MaxStateChunk tuples each; no tuples means no frames.
func (w *Writer) WriteState(tuples []core.Input) error {
	for len(tuples) > 0 {
		n := min(len(tuples), MaxStateChunk)
		if err := w.WriteStateChunk(tuples[:n]); err != nil {
			return err
		}
		tuples = tuples[n:]
	}
	return nil
}

// WriteRebalanceCommit emits a RebalanceCommit frame carrying the transfer
// summary.
func (w *Writer) WriteRebalanceCommit(info RebalanceInfo) error {
	return w.writeInfo(FrameRebalanceCommit, info)
}

// WriteCheckpoint emits a Checkpoint (snapshot request) frame. Like
// RebalancePrepare it carries no payload: the punctuation boundary is the
// frame's position in the stream.
func (w *Writer) WriteCheckpoint() error {
	return w.writeFrame(FrameCheckpoint, w.scratch(0))
}

// WriteCheckpointDone emits a CheckpointDone frame carrying the snapshot
// summary (same encoding as RebalanceCommit).
func (w *Writer) WriteCheckpointDone(info RebalanceInfo) error {
	return w.writeInfo(FrameCheckpointDone, info)
}

// writeInfo emits a state cut's summary frame of type t: the four counters
// of info as uvarints.
func (w *Writer) writeInfo(t FrameType, info RebalanceInfo) error {
	b := w.scratch(0)
	b = appendUvarint(b, info.TuplesR)
	b = appendUvarint(b, info.TuplesS)
	b = appendUvarint(b, info.SeqR)
	b = appendUvarint(b, info.SeqS)
	return w.writeFrame(t, b)
}

// DecodeStateChunk parses a StateChunk payload into a fresh slice of
// side-tagged tuples with their arrival sequence numbers.
func DecodeStateChunk(payload []byte) ([]core.Input, error) {
	c := cursor{b: payload}
	n := c.uvarint()
	if c.err == nil && n > MaxStateChunk {
		return nil, fmt.Errorf("wire: state chunk of %d tuples exceeds limit %d", n, MaxStateChunk)
	}
	// Each tuple occupies at least tupleWire+1 bytes (one-byte seq uvarint).
	if c.err == nil && n*(tupleWire+1) > uint64(len(payload)) {
		return nil, fmt.Errorf("wire: state chunk count %d exceeds payload", n)
	}
	tuples := make([]core.Input, 0, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		side := stream.Side(c.byte())
		key := c.u32()
		val := c.u32()
		seq := c.uvarint()
		if side != stream.SideR && side != stream.SideS {
			return nil, fmt.Errorf("wire: invalid tuple side %d in state chunk", side)
		}
		tuples = append(tuples, core.Input{Side: side, Tuple: stream.Tuple{Key: key, Val: val, Seq: seq}})
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return tuples, nil
}

// DecodeRebalanceCommit parses a RebalanceCommit payload.
func DecodeRebalanceCommit(payload []byte) (RebalanceInfo, error) {
	c := cursor{b: payload}
	info := RebalanceInfo{
		TuplesR: c.uvarint(),
		TuplesS: c.uvarint(),
		SeqR:    c.uvarint(),
		SeqS:    c.uvarint(),
	}
	if err := c.finish(); err != nil {
		return RebalanceInfo{}, err
	}
	return info, nil
}

// DecodeCheckpointDone parses a CheckpointDone payload (same encoding as
// RebalanceCommit).
func DecodeCheckpointDone(payload []byte) (RebalanceInfo, error) {
	return DecodeRebalanceCommit(payload)
}
