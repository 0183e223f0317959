package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"accelstream/internal/stream"
)

// The fuzz targets below harden the frame decoders against arbitrary
// bytes: whatever arrives, a decoder must either return an error or a
// value that survives a re-encode/re-decode round trip — never panic,
// never over-allocate past MaxPayload. Seed corpora come from the same
// deterministic generators as the corruption/truncation property tests
// (seeds 3 and 5), plus single-byte-flipped variants of each, so the
// fuzzer starts exactly where those tests probe.

// corpusFrames returns encoded frames (full wire form) used as seeds.
func corpusFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var frames [][]byte
	add := func(write func(*Writer) error) {
		var buf bytes.Buffer
		if err := write(NewWriter(&buf)); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	rng := rand.New(rand.NewSource(3))
	add(func(w *Writer) error { return w.WriteBatch(9, randInputs(rng, 25)) })
	rng = rand.New(rand.NewSource(5))
	add(func(w *Writer) error { return w.WriteResults(randResults(rng, 17)) })
	// Opens: a shard role, every engine kind, a token at the length
	// limit, token + tenant + kernel, and ordered + kernel, so the fuzzer
	// mutates the length prefixes and TLV tags alike.
	add(func(w *Writer) error {
		return w.WriteOpen(OpenConfig{Engine: EngineSoftUni, Cores: 8, Window: 1 << 14, ShardCount: 4, ShardIndex: 2, BaseSeqR: 99, BaseSeqS: 7})
	})
	add(func(w *Writer) error {
		return w.WriteOpen(OpenConfig{Engine: EngineSimUni, Cores: 2, Window: 256, AuthToken: "hunter2"})
	})
	add(func(w *Writer) error {
		tok := make([]byte, MaxAuthToken)
		for i := range tok {
			tok[i] = byte(i)
		}
		return w.WriteOpen(OpenConfig{Engine: EngineSoftBi, Cores: 4, Window: 1 << 10, AuthToken: string(tok)})
	})
	add(func(w *Writer) error {
		return w.WriteOpen(OpenConfig{Engine: EngineSoftUni, Cores: 2, Window: 256, AuthToken: "hunter2", Tenant: "acme.prod", ProbeKernel: 2})
	})
	add(func(w *Writer) error {
		return w.WriteOpen(OpenConfig{Engine: EngineSoftUni, Cores: 4, Window: 1 << 12, Ordered: true, ProbeKernel: 1})
	})
	// A v1 positional Open, which the decoder must refuse by version.
	v1Open, err := hex.DecodeString("01090101014000000000007eb6164d")
	if err != nil {
		tb.Fatal(err)
	}
	frames = append(frames, v1Open)
	// Acks: an acceptance and a typed rejection with a retry hint.
	add(func(w *Writer) error { return w.WriteOpenAck(OpenAck{Credits: 16, Session: 42}) })
	add(func(w *Writer) error {
		return w.WriteOpenAck(OpenAck{Reject: RejectRateLimited, RetryAfter: 1500 * time.Millisecond})
	})
	add(func(w *Writer) error { return w.WriteCredit(3) })
	add(func(w *Writer) error { return w.WriteClosed(Stats{TuplesIn: 10000, BatchesIn: 40, ResultsOut: 123}) })
	rng = rand.New(rand.NewSource(17))
	add(func(w *Writer) error { return w.WriteStateChunk(randStateTuples(rng, 21)) })
	add(func(w *Writer) error {
		return w.WriteRebalanceCommit(RebalanceInfo{TuplesR: 60, TuplesS: 61, SeqR: 5000, SeqS: 4999})
	})
	// Checkpoint control frames and the resumed open-ack, so the fuzzer
	// mutates the resume flag too.
	add(func(w *Writer) error { return w.WriteCheckpoint() })
	add(func(w *Writer) error {
		return w.WriteCheckpointDone(RebalanceInfo{TuplesR: 12, TuplesS: 13, SeqR: 800, SeqS: 801})
	})
	add(func(w *Writer) error {
		return w.WriteOpenAck(OpenAck{Credits: 8, Session: 7, Resumed: true, ResumeSeqR: 1 << 33, ResumeSeqS: 42})
	})
	return frames
}

// payloadOf strips the frame header and CRC, yielding the raw payload a
// Decode* function sees after ReadFrame validation.
func payloadOf(tb testing.TB, frame []byte) []byte {
	f, err := NewReader(bytes.NewReader(frame)).ReadFrame()
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), f.Payload...)
}

// seedWithFlips adds data plus every 16th single-byte-flipped variant
// (the corruption-test mutation, thinned to keep the corpus small).
func seedWithFlips(f *testing.F, data []byte) {
	f.Add(data)
	for pos := 0; pos < len(data); pos += 16 {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x41
		f.Add(flipped)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: every
// frame it accepts must have passed CRC validation and respect the
// payload bound.
func FuzzReadFrame(f *testing.F) {
	for _, frame := range corpusFrames(f) {
		seedWithFlips(f, frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Two reads' worth, so frames also straddle a read boundary.
		src := &chunkReader{chunks: [][]byte{data[:len(data)/2], data[len(data)/2:]}}
		r := NewReader(src)
		for {
			typ, whole := r.FrameBuffered()
			reads := src.reads
			frame, err := r.ReadFrame()
			if whole && src.reads != reads {
				t.Fatal("FrameBuffered reported a whole frame, but ReadFrame had to read for it")
			}
			if err != nil {
				return
			}
			if whole && typ != frame.Type {
				t.Fatalf("FrameBuffered reported a %v frame, ReadFrame returned %v", typ, frame.Type)
			}
			if len(frame.Payload) > MaxPayload {
				t.Fatalf("accepted payload of %d bytes beyond MaxPayload", len(frame.Payload))
			}
		}
	})
}

// FuzzDecodeBatch fuzzes the batch payload decoder; any accepted decode
// must re-encode to a payload that decodes identically.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteBatch(9, randInputs(rng, 25)); err != nil {
		f.Fatal(err)
	}
	seedWithFlips(f, payloadOf(f, buf.Bytes()))
	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, inputs, err := DecodeBatch(payload, 1<<16)
		if err != nil {
			return
		}
		var rt bytes.Buffer
		w := NewWriter(&rt)
		if err := w.WriteBatch(seq, inputs); err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		frame, err := NewReader(&rt).ReadFrame()
		if err != nil {
			t.Fatalf("re-read of accepted batch failed: %v", err)
		}
		seq2, inputs2, err := DecodeBatch(frame.Payload, 0)
		if err != nil || seq2 != seq || len(inputs2) != len(inputs) {
			t.Fatalf("batch round trip diverged: seq %d→%d, %d→%d tuples, err=%v",
				seq, seq2, len(inputs), len(inputs2), err)
		}
	})
}

// FuzzDecodeResults fuzzes the result payload decoder with the same
// accepted-implies-round-trips property.
func FuzzDecodeResults(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteResults(randResults(rng, 17)); err != nil {
		f.Fatal(err)
	}
	seedWithFlips(f, payloadOf(f, buf.Bytes()))
	f.Fuzz(func(t *testing.T, payload []byte) {
		results, err := DecodeResults(payload)
		// The Into form must agree with the allocating form whatever dst
		// it is handed: dirty and undersized (1 stale result, must grow),
		// dirty and oversized (must overwrite, not append).
		dirty := stream.Result{R: stream.Tuple{Key: 0xdead, Seq: 1 << 40}, S: stream.Tuple{Val: 0xbeef, Seq: 1 << 41}}
		small := []stream.Result{dirty}
		big := make([]stream.Result, len(results)+3)
		for i := range big {
			big[i] = dirty
		}
		for name, dst := range map[string][]stream.Result{"undersized": small, "oversized": big} {
			into, intoErr := DecodeResultsInto(payload, dst)
			if (intoErr == nil) != (err == nil) || len(into) != len(results) {
				t.Fatalf("%s dst: DecodeResultsInto gave %d results, err=%v; DecodeResults %d, err=%v",
					name, len(into), intoErr, len(results), err)
			}
			for i := range into {
				if into[i] != results[i] {
					t.Fatalf("%s dst: result %d is %v, DecodeResults gave %v", name, i, into[i], results[i])
				}
			}
			if err == nil && name == "oversized" && len(into) > 0 && &into[0] != &big[0] {
				t.Fatalf("oversized dst was not reused")
			}
		}
		if err != nil {
			return
		}
		var rt bytes.Buffer
		if err := NewWriter(&rt).WriteResults(results); err != nil {
			t.Fatalf("re-encode of accepted results failed: %v", err)
		}
		frame, err := NewReader(&rt).ReadFrame()
		if err != nil {
			t.Fatalf("re-read of accepted results failed: %v", err)
		}
		results2, err := DecodeResults(frame.Payload)
		if err != nil || len(results2) != len(results) {
			t.Fatalf("results round trip diverged: %d→%d, err=%v", len(results), len(results2), err)
		}
		for i := range results2 {
			if results2[i].PairID() != results[i].PairID() {
				t.Fatalf("result %d pair id changed across round trip", i)
			}
		}
	})
}

// FuzzDecodeControl fuzzes every control-payload decoder (open,
// open-ack, credit, closed, state-chunk, rebalance-commit): accepted
// opens must validate, and accepted values must survive a round trip.
func FuzzDecodeControl(f *testing.F) {
	for _, frame := range corpusFrames(f) {
		if t := FrameType(frame[0]); t != FrameBatch && t != FrameResults {
			seedWithFlips(f, payloadOf(f, frame))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if cfg, err := DecodeOpen(payload); err == nil {
			if verr := cfg.Validate(); verr != nil {
				t.Fatalf("DecodeOpen accepted invalid config %+v: %v", cfg, verr)
			}
			var rt bytes.Buffer
			if err := NewWriter(&rt).WriteOpen(cfg); err != nil {
				t.Fatalf("re-encode of accepted open failed: %v", err)
			}
			frame, err := NewReader(&rt).ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if cfg2, err := DecodeOpen(frame.Payload); err != nil || cfg2 != cfg {
				t.Fatalf("open round trip diverged: %+v vs %+v, err=%v", cfg, cfg2, err)
			}
		}
		if ack, err := DecodeOpenAck(payload); err == nil {
			if ack.Reject == RejectNone && ack.Credits <= 0 {
				t.Fatalf("DecodeOpenAck accepted non-positive credits: %+v", ack)
			}
			if ack.Reject != RejectNone && (ack.Credits != 0 || ack.Session != 0 || ack.Resumed) {
				t.Fatalf("DecodeOpenAck returned non-canonical rejection: %+v", ack)
			}
			var rt bytes.Buffer
			if err := NewWriter(&rt).WriteOpenAck(ack); err != nil {
				t.Fatalf("re-encode of accepted open-ack failed: %v", err)
			}
			frame, err := NewReader(&rt).ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if ack2, err := DecodeOpenAck(frame.Payload); err != nil || ack2 != ack {
				t.Fatalf("open-ack round trip diverged: %+v vs %+v, err=%v", ack, ack2, err)
			}
		}
		if n, err := DecodeCredit(payload); err == nil && (n <= 0 || n > 1<<20) {
			t.Fatalf("DecodeCredit accepted out-of-range grant %d", n)
		}
		DecodeClosed(payload)
		if tuples, err := DecodeStateChunk(payload); err == nil {
			if len(tuples) > MaxStateChunk {
				t.Fatalf("DecodeStateChunk accepted %d tuples beyond MaxStateChunk", len(tuples))
			}
			var rt bytes.Buffer
			if err := NewWriter(&rt).WriteStateChunk(tuples); err != nil {
				t.Fatalf("re-encode of accepted state chunk failed: %v", err)
			}
			frame, err := NewReader(&rt).ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			tuples2, err := DecodeStateChunk(frame.Payload)
			if err != nil || len(tuples2) != len(tuples) {
				t.Fatalf("state chunk round trip diverged: %d→%d tuples, err=%v", len(tuples), len(tuples2), err)
			}
			for i := range tuples2 {
				if tuples2[i] != tuples[i] {
					t.Fatalf("state tuple %d changed across round trip: %+v vs %+v", i, tuples[i], tuples2[i])
				}
			}
		}
		if info, err := DecodeRebalanceCommit(payload); err == nil {
			var rt bytes.Buffer
			if err := NewWriter(&rt).WriteRebalanceCommit(info); err != nil {
				t.Fatalf("re-encode of accepted rebalance commit failed: %v", err)
			}
			frame, err := NewReader(&rt).ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if info2, err := DecodeRebalanceCommit(frame.Payload); err != nil || info2 != info {
				t.Fatalf("rebalance commit round trip diverged: %+v vs %+v, err=%v", info, info2, err)
			}
		}
	})
}
