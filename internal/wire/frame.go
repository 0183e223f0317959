package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame is one decoded-but-unparsed frame: the type plus the raw payload.
// Payload aliases the Reader's scratch buffer and is valid only until the
// next ReadFrame call; Decode* before reading again.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// Writer encodes frames onto an io.Writer. It is not safe for concurrent
// use; callers that share one connection between goroutines must serialize
// writes themselves.
type Writer struct {
	w io.Writer
	// buf is the frame scratch, reused across frames: frameHead bytes of
	// header room, the payload, then the CRC, so a whole frame leaves in
	// one Write.
	buf []byte
}

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// frameHead is the room every scratch reserves in front of the payload
// for the frame header (type byte plus a maximal length uvarint); the
// header is written right-aligned into it once the payload length is
// known.
const frameHead = 1 + binary.MaxVarintLen64

// writeFrame emits one frame whose payload the caller appended to a
// scratch() buffer. Header, payload and CRC go out contiguously in a
// single Write — one syscall and one peer wake-up per frame whatever its
// size — so every frame is immediately visible to the peer (batching
// happens at the payload level, not by holding frames back).
func (w *Writer) writeFrame(t FrameType, b []byte) error {
	payload := b[frameHead:]
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	var size [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(size[:], uint64(len(payload)))
	start := frameHead - 1 - n
	b[start] = byte(t)
	copy(b[start+1:], size[:n])
	// Update-chaining computes the same IEEE CRC as a crc32.NewIEEE()
	// digest without allocating one per frame.
	crc := crc32.Update(0, crc32.IEEETable, b[start:start+1])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	b = binary.BigEndian.AppendUint32(b, crc)
	w.buf = b // keep whatever the appends grew
	_, err := w.w.Write(b[start:])
	return err
}

// scratch returns the writer's frame scratch, positioned after the header
// room and with capacity for an n-byte payload plus the CRC, growing it at
// most once per frame (and then keeping the larger backing array for every
// later frame). Callers append the payload and pass the result to
// writeFrame.
func (w *Writer) scratch(n int) []byte {
	if need := frameHead + n + crc32.Size; cap(w.buf) < need {
		w.buf = make([]byte, frameHead, need)
	}
	return w.buf[:frameHead]
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// Reader decodes frames from an io.Reader. Not safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte // payload scratch, reused across frames
	// typ and sum live on the Reader (not the stack) because they are
	// passed through an interface or a function variable (io.Reader,
	// crc32's per-architecture update), which would otherwise force a heap
	// escape — and an allocation — on every frame.
	typ [1]byte
	sum [crc32.Size]byte
}

// NewReader wraps r in a frame decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// FrameBuffered reports whether a whole next frame (header, payload and
// CRC) already sits in the read buffer, so that ReadFrame will return it
// without reading from the underlying reader, and that frame's type. It
// never reads itself: a frame still arriving, a frame larger than the
// buffer, and a malformed header all report false (ReadFrame then names
// the error). The type is unvalidated until ReadFrame checks the CRC.
func (r *Reader) FrameBuffered() (FrameType, bool) {
	n := r.br.Buffered()
	if n == 0 {
		return 0, false
	}
	b, _ := r.br.Peek(n) // at most Buffered: served from the buffer
	size, k := binary.Uvarint(b[1:])
	if k > 0 && size <= MaxPayload && size+crc32.Size <= uint64(n-1-k) {
		return FrameType(b[0]), true
	}
	return 0, false
}

// ReadFrame reads and CRC-validates the next frame. The returned payload
// aliases an internal buffer valid until the next call.
func (r *Reader) ReadFrame() (Frame, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if size > MaxPayload {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit %d", size, MaxPayload)
	}
	if cap(r.buf) < int(size) {
		// Grow geometrically: frame sizes creep upward as the varint
		// sequence numbers they carry lengthen, and growing to the exact
		// size would reallocate at every new maximum.
		r.buf = make([]byte, size, max(int(size), 2*cap(r.buf)))
	}
	payload := r.buf[:size]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	if _, err := io.ReadFull(r.br, r.sum[:]); err != nil {
		return Frame{}, fmt.Errorf("wire: reading frame checksum: %w", err)
	}
	r.typ[0] = t
	crc := crc32.Update(0, crc32.IEEETable, r.typ[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if got, want := crc, binary.BigEndian.Uint32(r.sum[:]); got != want {
		return Frame{}, fmt.Errorf("wire: checksum mismatch on %v frame: computed %08x, carried %08x", FrameType(t), got, want)
	}
	return Frame{Type: FrameType(t), Payload: payload}, nil
}

// cursor is a tiny decode helper over a payload slice.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("wire: truncated uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("wire: truncated u32 at offset %d", c.off)
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.err = fmt.Errorf("wire: truncated byte at offset %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.err = fmt.Errorf("wire: truncated %d-byte field at offset %d", n, c.off)
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *cursor) remaining() int {
	return len(c.b) - c.off
}

func (c *cursor) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(c.b)-c.off)
	}
	return nil
}
