package wire

import (
	"encoding/binary"
	"fmt"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Wire widths of the hot-path elements: a batch tuple is a side byte plus
// key and val; a result is at least four u32s plus two one-byte uvarints
// and at most four u32s plus two maximal uvarints. The Max widths size the
// writer scratch so hot frames never re-grow it mid-append.
const (
	tupleWire     = 9
	resultWireMin = 18
	resultWireMax = 16 + 2*binary.MaxVarintLen64
)

// WriteBatch emits a Batch frame: the batch sequence number, a uvarint
// tuple count, then the side-tagged wire words. Seq and Tag of the tuples
// are not carried: the server reassigns arrival sequence numbers in wire
// order, which equals the client's push order.
func (w *Writer) WriteBatch(seq uint64, inputs []core.Input) error {
	b := w.scratch(2*binary.MaxVarintLen64 + len(inputs)*tupleWire)
	b = appendUvarint(b, seq)
	b = appendUvarint(b, uint64(len(inputs)))
	for i := range inputs {
		b = append(b, byte(inputs[i].Side))
		b = appendU32(b, inputs[i].Tuple.Key)
		b = appendU32(b, inputs[i].Tuple.Val)
	}
	return w.writeFrame(FrameBatch, b)
}

// WriteResults emits a Results frame. Sequence numbers ride along so the
// client can verify exactly-once pairing.
func (w *Writer) WriteResults(results []stream.Result) error {
	b := w.scratch(binary.MaxVarintLen64 + len(results)*resultWireMax)
	b = appendUvarint(b, uint64(len(results)))
	for i := range results {
		r := &results[i]
		b = appendU32(b, r.R.Key)
		b = appendU32(b, r.R.Val)
		b = appendUvarint(b, r.R.Seq)
		b = appendU32(b, r.S.Key)
		b = appendU32(b, r.S.Val)
		b = appendUvarint(b, r.S.Seq)
	}
	return w.writeFrame(FrameResults, b)
}

// WriteCredit returns n batch credits to the client.
func (w *Writer) WriteCredit(n int) error {
	b := appendUvarint(w.scratch(0), uint64(n))
	return w.writeFrame(FrameCredit, b)
}

// DecodeBatch parses a Batch payload into a fresh input slice. maxTuples
// bounds the accepted batch size (0 means unbounded up to MaxPayload).
func DecodeBatch(payload []byte, maxTuples int) (seq uint64, inputs []core.Input, err error) {
	return DecodeBatchInto(payload, maxTuples, nil)
}

// DecodeBatchInto parses a Batch payload into dst's backing storage,
// growing it only when the batch exceeds dst's capacity. A caller that
// hands the returned slice back on the next call (as the server
// session's ingest does, once the engine has copied the batch) decodes
// every steady-state frame with zero allocations. dst may be nil; its contents are
// overwritten. maxTuples bounds the accepted batch size (0 means
// unbounded up to MaxPayload).
func DecodeBatchInto(payload []byte, maxTuples int, dst []core.Input) (seq uint64, inputs []core.Input, err error) {
	c := cursor{b: payload}
	seq = c.uvarint()
	n := c.uvarint()
	if c.err == nil && maxTuples > 0 && n > uint64(maxTuples) {
		return 0, nil, fmt.Errorf("wire: batch of %d tuples exceeds limit %d", n, maxTuples)
	}
	if c.err == nil && n*tupleWire > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("wire: batch count %d exceeds payload", n)
	}
	inputs = dst[:0]
	if uint64(cap(inputs)) < n {
		inputs = make([]core.Input, 0, n)
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		side := stream.Side(c.byte())
		key := c.u32()
		val := c.u32()
		if side != stream.SideR && side != stream.SideS {
			return 0, nil, fmt.Errorf("wire: invalid tuple side %d in batch", side)
		}
		inputs = append(inputs, core.Input{Side: side, Tuple: stream.Tuple{Key: key, Val: val}})
	}
	if err := c.finish(); err != nil {
		return 0, nil, err
	}
	return seq, inputs, nil
}

// DecodeResults parses a Results payload into a fresh result slice.
func DecodeResults(payload []byte) ([]stream.Result, error) {
	return DecodeResultsInto(payload, nil)
}

// DecodeResultsInto parses a Results payload into dst's backing storage,
// growing it only when the frame exceeds dst's capacity — the result-path
// mirror of DecodeBatchInto. A reader that decodes every frame into a
// pooled batch (as Client.readLoop does) performs no steady-state
// allocation. dst may be nil; its contents are overwritten.
func DecodeResultsInto(payload []byte, dst []stream.Result) ([]stream.Result, error) {
	c := cursor{b: payload}
	n := c.uvarint()
	if c.err == nil && n*resultWireMin > uint64(len(payload)) {
		return nil, fmt.Errorf("wire: result count %d exceeds payload", n)
	}
	results := dst[:0]
	if uint64(cap(results)) < n {
		results = make([]stream.Result, 0, n)
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		var r stream.Result
		r.R.Key = c.u32()
		r.R.Val = c.u32()
		r.R.Seq = c.uvarint()
		r.S.Key = c.u32()
		r.S.Val = c.u32()
		r.S.Seq = c.uvarint()
		results = append(results, r)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return results, nil
}

// DecodeCredit parses a Credit payload.
func DecodeCredit(payload []byte) (int, error) {
	c := cursor{b: payload}
	n := c.uvarint()
	if err := c.finish(); err != nil {
		return 0, err
	}
	if n == 0 || n > 1<<20 {
		return 0, fmt.Errorf("wire: credit grant %d out of range", n)
	}
	return int(n), nil
}
