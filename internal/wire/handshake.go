package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"accelstream/internal/stream"
)

// The field tags of the Open encoding. An Open payload is the version
// uvarint followed by [tag:uvarint][len:uvarint][value] fields in any
// order; zero-valued fields are omitted and unknown tags are skipped, so
// the encoding grows without another protocol revision.
const (
	openTagEngine      = 1  // 1 byte: EngineKind
	openTagCores       = 2  // uvarint
	openTagWindow      = 3  // uvarint
	openTagFlags       = 4  // 1 byte: bit 0 = ordered
	openTagShardCount  = 5  // uvarint
	openTagShardIndex  = 6  // uvarint
	openTagBaseSeqR    = 7  // uvarint
	openTagBaseSeqS    = 8  // uvarint
	openTagAuthToken   = 9  // raw bytes
	openTagProbeKernel = 10 // 1 byte: stream.ProbeKernel
	openTagTenant      = 11 // raw bytes, ValidTenant-constrained
)

// The field tags of the OpenAck encoding (same TLV grammar as the Open).
// A rejected ack carries only the reject fields; an accepting ack never
// carries them, so each decoded ack is canonical.
const (
	ackTagCredits    = 1 // uvarint
	ackTagSession    = 2 // uvarint
	ackTagResumed    = 3 // 1 byte: must be 1
	ackTagResumeSeqR = 4 // uvarint
	ackTagResumeSeqS = 5 // uvarint
	ackTagReject     = 6 // 1 byte: RejectCode
	ackTagRetryAfter = 7 // uvarint: milliseconds
)

// appendFieldUvarint appends one TLV field holding a uvarint value.
func appendFieldUvarint(b []byte, tag, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b = appendUvarint(b, tag)
	b = appendUvarint(b, uint64(n))
	return append(b, tmp[:n]...)
}

// appendFieldByte appends one TLV field holding a single byte.
func appendFieldByte(b []byte, tag uint64, v byte) []byte {
	b = appendUvarint(b, tag)
	b = appendUvarint(b, 1)
	return append(b, v)
}

// appendFieldString appends one TLV field holding raw string bytes.
func appendFieldString(b []byte, tag uint64, s string) []byte {
	b = appendUvarint(b, tag)
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// fieldUvarint parses a TLV value that must be exactly one uvarint.
func fieldUvarint(tag uint64, val []byte) (uint64, error) {
	v, n := binary.Uvarint(val)
	if n <= 0 || n != len(val) {
		return 0, fmt.Errorf("wire: malformed uvarint in field %d", tag)
	}
	return v, nil
}

// fieldInt parses a TLV value that must be exactly one uvarint into *dst.
func fieldInt(tag uint64, val []byte, dst *int) error {
	v, err := fieldUvarint(tag, val)
	*dst = int(v)
	return err
}

// fieldByte parses a TLV value that must be exactly one byte.
func fieldByte(tag uint64, val []byte) (byte, error) {
	if len(val) != 1 {
		return 0, fmt.Errorf("wire: field %d wants 1 byte, got %d", tag, len(val))
	}
	return val[0], nil
}

// WriteOpen emits an Open frame: the version uvarint followed by TLV
// fields, zero-valued fields omitted.
func (w *Writer) WriteOpen(cfg OpenConfig) error {
	b := w.scratch(0)
	b = appendUvarint(b, ProtocolV2)
	b = appendFieldByte(b, openTagEngine, byte(cfg.Engine))
	b = appendFieldUvarint(b, openTagCores, uint64(cfg.Cores))
	b = appendFieldUvarint(b, openTagWindow, uint64(cfg.Window))
	if cfg.Ordered {
		b = appendFieldByte(b, openTagFlags, 1)
	}
	if cfg.ShardCount != 0 {
		b = appendFieldUvarint(b, openTagShardCount, uint64(cfg.ShardCount))
	}
	if cfg.ShardIndex != 0 {
		b = appendFieldUvarint(b, openTagShardIndex, uint64(cfg.ShardIndex))
	}
	if cfg.BaseSeqR != 0 {
		b = appendFieldUvarint(b, openTagBaseSeqR, cfg.BaseSeqR)
	}
	if cfg.BaseSeqS != 0 {
		b = appendFieldUvarint(b, openTagBaseSeqS, cfg.BaseSeqS)
	}
	if cfg.AuthToken != "" {
		b = appendFieldString(b, openTagAuthToken, cfg.AuthToken)
	}
	if cfg.ProbeKernel != stream.KernelAuto {
		b = appendFieldByte(b, openTagProbeKernel, byte(cfg.ProbeKernel))
	}
	if cfg.Tenant != "" {
		b = appendFieldString(b, openTagTenant, cfg.Tenant)
	}
	return w.writeFrame(FrameOpen, b)
}

// WriteOpenAck emits an OpenAck frame: a leading 0 uvarint (fixed, so
// acks stay byte-identical for deployed v2 peers), the version uvarint,
// then TLV fields. A rejected ack carries only the reject code and the
// optional retry-after hint.
func (w *Writer) WriteOpenAck(ack OpenAck) error {
	b := w.scratch(0)
	b = appendUvarint(b, 0)
	b = appendUvarint(b, ProtocolV2)
	if ack.Reject != RejectNone {
		b = appendFieldByte(b, ackTagReject, byte(ack.Reject))
		if ack.RetryAfter > 0 {
			b = appendFieldUvarint(b, ackTagRetryAfter, uint64(ack.RetryAfter/time.Millisecond))
		}
	} else {
		b = appendFieldUvarint(b, ackTagCredits, uint64(ack.Credits))
		b = appendFieldUvarint(b, ackTagSession, ack.Session)
		if ack.Resumed {
			b = appendFieldByte(b, ackTagResumed, 1)
			b = appendFieldUvarint(b, ackTagResumeSeqR, ack.ResumeSeqR)
			b = appendFieldUvarint(b, ackTagResumeSeqS, ack.ResumeSeqS)
		}
	}
	return w.writeFrame(FrameOpenAck, b)
}

// fields walks the TLV fields that follow a handshake payload's leading
// uvarints to the end of the payload, handing each to field, and returns
// the first error field or the walk meets. field skips the tags it does
// not know, so the encoding grows without another protocol revision.
func (c *cursor) fields(field func(tag uint64, val []byte) error) error {
	for c.err == nil && c.remaining() > 0 {
		tag := c.uvarint()
		n := c.uvarint()
		val := c.bytes(int(n))
		if c.err != nil {
			break
		}
		if err := field(tag, val); err != nil {
			return err
		}
	}
	return c.err
}

// DecodeOpen parses and validates an Open payload. Unknown tags are
// skipped so future fields do not break this decoder; duplicate tags are
// last-wins. Any version but ProtocolV2 is refused.
func DecodeOpen(payload []byte) (OpenConfig, error) {
	c := cursor{b: payload}
	version := c.uvarint()
	if c.err != nil {
		return OpenConfig{}, c.err
	}
	if version != ProtocolV2 {
		return OpenConfig{}, fmt.Errorf("wire: protocol version %d not supported (want %d)", version, ProtocolV2)
	}
	var cfg OpenConfig
	err := c.fields(func(tag uint64, val []byte) (err error) {
		var b byte
		switch tag {
		case openTagEngine:
			b, err = fieldByte(tag, val)
			cfg.Engine = EngineKind(b)
		case openTagCores:
			err = fieldInt(tag, val, &cfg.Cores)
		case openTagWindow:
			err = fieldInt(tag, val, &cfg.Window)
		case openTagFlags:
			b, err = fieldByte(tag, val)
			cfg.Ordered = b&1 != 0
		case openTagShardCount:
			err = fieldInt(tag, val, &cfg.ShardCount)
		case openTagShardIndex:
			err = fieldInt(tag, val, &cfg.ShardIndex)
		case openTagBaseSeqR:
			cfg.BaseSeqR, err = fieldUvarint(tag, val)
		case openTagBaseSeqS:
			cfg.BaseSeqS, err = fieldUvarint(tag, val)
		case openTagAuthToken:
			if len(val) > MaxAuthToken {
				return fmt.Errorf("wire: auth token of %d bytes exceeds limit %d", len(val), MaxAuthToken)
			}
			cfg.AuthToken = string(val)
		case openTagProbeKernel:
			b, err = fieldByte(tag, val)
			cfg.ProbeKernel = stream.ProbeKernel(b)
		case openTagTenant:
			// Charset and length are checked by Validate via ValidTenant.
			cfg.Tenant = string(val)
		}
		return err
	})
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return OpenConfig{}, err
	}
	return cfg, nil
}

// DecodeOpenAck parses an OpenAck payload: the leading 0, the version,
// then TLV fields. The decoded ack is canonicalized: a rejected ack keeps
// only the reject code and retry-after hint, an accepting ack drops any
// stray retry-after, so decode→encode→decode is stable.
func DecodeOpenAck(payload []byte) (OpenAck, error) {
	c := cursor{b: payload}
	lead, version := c.uvarint(), c.uvarint()
	if c.err != nil {
		return OpenAck{}, c.err
	}
	if lead != 0 || version != ProtocolV2 {
		return OpenAck{}, fmt.Errorf("wire: open-ack %d/%d not supported (want 0/%d)", lead, version, ProtocolV2)
	}
	var ack OpenAck
	var retryMillis uint64
	err := c.fields(func(tag uint64, val []byte) (err error) {
		var b byte
		switch tag {
		case ackTagCredits:
			err = fieldInt(tag, val, &ack.Credits)
		case ackTagSession:
			ack.Session, err = fieldUvarint(tag, val)
		case ackTagResumed:
			if b, err = fieldByte(tag, val); err == nil && b != 1 {
				err = fmt.Errorf("wire: invalid open-ack resume flag %d", b)
			}
			ack.Resumed = err == nil
		case ackTagResumeSeqR:
			ack.ResumeSeqR, err = fieldUvarint(tag, val)
		case ackTagResumeSeqS:
			ack.ResumeSeqS, err = fieldUvarint(tag, val)
		case ackTagReject:
			b, err = fieldByte(tag, val)
			ack.Reject = RejectCode(b)
		case ackTagRetryAfter:
			retryMillis, err = fieldUvarint(tag, val)
		}
		return err
	})
	if err != nil {
		return OpenAck{}, err
	}
	if ack.Reject != RejectNone {
		return OpenAck{
			Reject:     ack.Reject,
			RetryAfter: time.Duration(retryMillis) * time.Millisecond,
		}, nil
	}
	if ack.Credits <= 0 {
		return OpenAck{}, fmt.Errorf("wire: non-positive credit window %d", ack.Credits)
	}
	return ack, nil
}
