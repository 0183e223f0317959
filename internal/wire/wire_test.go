package wire

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

func randInputs(rng *rand.Rand, n int) []core.Input {
	inputs := make([]core.Input, n)
	for i := range inputs {
		side := stream.SideR
		if rng.Intn(2) == 1 {
			side = stream.SideS
		}
		inputs[i] = core.Input{Side: side, Tuple: stream.Tuple{
			Key: rng.Uint32(),
			Val: rng.Uint32(),
		}}
	}
	return inputs
}

func randResults(rng *rand.Rand, n int) []stream.Result {
	results := make([]stream.Result, n)
	for i := range results {
		results[i] = stream.Result{
			R: stream.Tuple{Key: rng.Uint32(), Val: rng.Uint32(), Seq: rng.Uint64() >> uint(rng.Intn(64))},
			S: stream.Tuple{Key: rng.Uint32(), Val: rng.Uint32(), Seq: rng.Uint64() >> uint(rng.Intn(64))},
		}
	}
	return results
}

// TestBatchRoundTrip is the encode/decode property test for batch frames:
// random batches survive a round trip bit-exactly (modulo the Seq/Tag
// metadata, which deliberately does not ride the wire).
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		inputs := randInputs(rng, rng.Intn(300))
		seq := rng.Uint64() >> uint(rng.Intn(64))

		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteBatch(seq, inputs); err != nil {
			t.Fatal(err)
		}
		f, err := NewReader(&buf).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameBatch {
			t.Fatalf("frame type %v, want batch", f.Type)
		}
		gotSeq, got, err := DecodeBatch(f.Payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		if gotSeq != seq {
			t.Fatalf("batch seq %d, want %d", gotSeq, seq)
		}
		if len(got) != len(inputs) {
			t.Fatalf("decoded %d inputs, want %d", len(got), len(inputs))
		}
		for i := range got {
			if got[i].Side != inputs[i].Side ||
				got[i].Tuple.Key != inputs[i].Tuple.Key ||
				got[i].Tuple.Val != inputs[i].Tuple.Val {
				t.Fatalf("input %d: got %+v, want %+v", i, got[i], inputs[i])
			}
		}
	}
}

// TestResultsRoundTrip checks that result frames preserve keys, values,
// and both sequence numbers (needed for PairID verification client-side).
func TestResultsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		results := randResults(rng, rng.Intn(200))

		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteResults(results); err != nil {
			t.Fatal(err)
		}
		f, err := NewReader(&buf).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameResults {
			t.Fatalf("frame type %v, want results", f.Type)
		}
		got, err := DecodeResults(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(results) {
			t.Fatalf("decoded %d results, want %d", len(got), len(results))
		}
		for i := range got {
			if got[i].PairID() != results[i].PairID() ||
				got[i].R.Key != results[i].R.Key || got[i].R.Val != results[i].R.Val ||
				got[i].S.Key != results[i].S.Key || got[i].S.Val != results[i].S.Val {
				t.Fatalf("result %d: got %+v, want %+v", i, got[i], results[i])
			}
		}
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cfg := OpenConfig{Engine: EngineSoftUni, Cores: 8, Window: 1 << 14, Ordered: true}
	if err := w.WriteOpen(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteOpenAck(OpenAck{Credits: 16, Session: 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCredit(3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteClose(); err != nil {
		t.Fatal(err)
	}
	st := Stats{TuplesIn: 10000, BatchesIn: 40, ResultsOut: 123}
	if err := w.WriteClosed(st); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteError("boom"); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	gotCfg, err := DecodeOpen(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != cfg {
		t.Fatalf("open round trip: got %+v, want %+v", gotCfg, cfg)
	}
	f, _ = r.ReadFrame()
	ack, err := DecodeOpenAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Credits != 16 || ack.Session != 42 {
		t.Fatalf("open-ack round trip: got %+v", ack)
	}
	f, _ = r.ReadFrame()
	n, err := DecodeCredit(f.Payload)
	if err != nil || n != 3 {
		t.Fatalf("credit round trip: n=%d err=%v", n, err)
	}
	f, _ = r.ReadFrame()
	if f.Type != FrameClose || len(f.Payload) != 0 {
		t.Fatalf("close frame: %+v", f)
	}
	f, _ = r.ReadFrame()
	gotSt, err := DecodeClosed(f.Payload)
	if err != nil || gotSt != st {
		t.Fatalf("closed round trip: got %+v err=%v", gotSt, err)
	}
	f, _ = r.ReadFrame()
	if f.Type != FrameError || DecodeError(f.Payload) != "boom" {
		t.Fatalf("error frame: %+v", f)
	}
}

// randStateTuples builds side-tagged tuples with arrival sequence numbers,
// the payload of a window-state migration.
func randStateTuples(rng *rand.Rand, n int) []core.Input {
	tuples := randInputs(rng, n)
	for i := range tuples {
		tuples[i].Tuple.Seq = rng.Uint64() >> uint(rng.Intn(64))
	}
	return tuples
}

// TestRebalanceFrameRoundTrips is the encode/decode property test for the
// rebalance control frames: Prepare is empty, StateChunk preserves side,
// key, value, AND the arrival sequence number (unlike Batch frames — the
// residue class of a migrated tuple is a function of its arrival index),
// and RebalanceCommit preserves the transfer summary.
func TestRebalanceFrameRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		tuples := randStateTuples(rng, rng.Intn(300))
		info := RebalanceInfo{
			TuplesR: rng.Uint64() >> uint(rng.Intn(64)),
			TuplesS: rng.Uint64() >> uint(rng.Intn(64)),
			SeqR:    rng.Uint64() >> uint(rng.Intn(64)),
			SeqS:    rng.Uint64() >> uint(rng.Intn(64)),
		}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRebalancePrepare(); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteStateChunk(tuples); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRebalanceCommit(info); err != nil {
			t.Fatal(err)
		}

		r := NewReader(&buf)
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameRebalancePrepare || len(f.Payload) != 0 {
			t.Fatalf("rebalance-prepare frame: %+v", f)
		}
		f, err = r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameStateChunk {
			t.Fatalf("frame type %v, want state-chunk", f.Type)
		}
		got, err := DecodeStateChunk(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tuples) {
			t.Fatalf("decoded %d state tuples, want %d", len(got), len(tuples))
		}
		for i := range got {
			if got[i].Side != tuples[i].Side ||
				got[i].Tuple.Key != tuples[i].Tuple.Key ||
				got[i].Tuple.Val != tuples[i].Tuple.Val ||
				got[i].Tuple.Seq != tuples[i].Tuple.Seq {
				t.Fatalf("state tuple %d: got %+v, want %+v", i, got[i], tuples[i])
			}
		}
		f, err = r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		gotInfo, err := DecodeRebalanceCommit(f.Payload)
		if err != nil || gotInfo != info {
			t.Fatalf("rebalance-commit round trip: got %+v want %+v err=%v", gotInfo, info, err)
		}
	}
}

// TestWriteState checks the one chunk loop and the one side tally: a cut
// leaves as full MaxStateChunk frames then the remainder, in order, an
// empty cut as no frame at all, and Tally counts each side exactly.
func TestWriteState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, MaxStateChunk, 2*MaxStateChunk + 1} {
		tuples := randStateTuples(rng, n)
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteState(tuples); err != nil {
			t.Fatal(err)
		}
		var got []core.Input
		r := NewReader(&buf)
		for frames := 0; ; frames++ {
			f, err := r.ReadFrame()
			if err == io.EOF {
				if want := (n + MaxStateChunk - 1) / MaxStateChunk; frames != want {
					t.Fatalf("n=%d: %d frames, want %d", n, frames, want)
				}
				break
			}
			if err != nil || f.Type != FrameStateChunk {
				t.Fatalf("n=%d: frame %d: %v %v", n, frames, f.Type, err)
			}
			chunk, err := DecodeStateChunk(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(MaxStateChunk, n-len(got)); len(chunk) != want {
				t.Fatalf("n=%d: frame %d carries %d tuples, want %d", n, frames, len(chunk), want)
			}
			got = append(got, chunk...)
		}
		var info RebalanceInfo
		info.Tally(tuples)
		var nr uint64
		for i := range tuples {
			if got[i] != tuples[i] {
				t.Fatalf("n=%d: tuple %d: got %+v, want %+v", n, i, got[i], tuples[i])
			}
			if tuples[i].Side == stream.SideR {
				nr++
			}
		}
		if info.TuplesR != nr || info.TuplesS != uint64(n)-nr {
			t.Fatalf("n=%d: Tally %+v, want %d R + %d S", n, info, nr, uint64(n)-nr)
		}
	}
}

// TestStateChunkLimits checks both directions of the chunk bound: the
// writer refuses oversized chunks, and the decoder rejects payloads whose
// count prefix lies about the tuple count or exceeds MaxStateChunk.
func TestStateChunkLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	if err := NewWriter(io.Discard).WriteStateChunk(randStateTuples(rng, MaxStateChunk+1)); err == nil {
		t.Fatal("WriteStateChunk accepted an oversized chunk")
	}
	// A count prefix larger than the payload could possibly hold.
	payload := []byte{0xFF, 0x01} // uvarint 255, no tuple bytes
	if _, err := DecodeStateChunk(payload); err == nil {
		t.Fatal("DecodeStateChunk accepted a lying count prefix")
	}
	// A count prefix beyond MaxStateChunk is rejected before allocation.
	huge := make([]byte, 8)
	n := 0
	for v := uint64(MaxStateChunk + 1); v > 0; v >>= 7 {
		b := byte(v & 0x7F)
		if v>>7 > 0 {
			b |= 0x80
		}
		huge[n] = b
		n++
	}
	if _, err := DecodeStateChunk(huge[:n]); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("DecodeStateChunk on oversized count: err=%v", err)
	}
	// Invalid tuple side.
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteStateChunk(randStateTuples(rng, 3)); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), f.Payload...)
	bad[1] = 9 // first tuple's side byte
	if _, err := DecodeStateChunk(bad); err == nil {
		t.Fatal("DecodeStateChunk accepted an invalid side byte")
	}
}

// TestStateChunkCorruptionDetected flips every byte of an encoded
// StateChunk frame and requires the reader or decoder to reject each copy.
func TestStateChunkCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteStateChunk(randStateTuples(rng, 25)); err != nil {
		t.Fatal(err)
	}
	original := buf.Bytes()
	for pos := 0; pos < len(original); pos++ {
		corrupted := append([]byte(nil), original...)
		corrupted[pos] ^= 0x41
		f, err := NewReader(bytes.NewReader(corrupted)).ReadFrame()
		if err != nil {
			continue
		}
		if f.Type == FrameStateChunk {
			if _, derr := DecodeStateChunk(f.Payload); derr == nil {
				t.Fatalf("state-chunk corruption at byte %d went undetected", pos)
			}
		}
	}
}

// TestCorruptionDetected flips every byte position of an encoded frame in
// turn and requires the reader to reject each corrupted copy (either by
// CRC mismatch or by a framing error — never by silently decoding).
func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteBatch(9, randInputs(rng, 25)); err != nil {
		t.Fatal(err)
	}
	original := buf.Bytes()
	for pos := 0; pos < len(original); pos++ {
		corrupted := append([]byte(nil), original...)
		corrupted[pos] ^= 0x41
		f, err := NewReader(bytes.NewReader(corrupted)).ReadFrame()
		if err != nil {
			continue
		}
		// A flipped byte that still frames must fail CRC... unless it
		// framed differently and coincidentally passed; that cannot
		// happen for a single bit-flip within one frame.
		if f.Type == FrameBatch {
			if _, _, derr := DecodeBatch(f.Payload, 0); derr == nil {
				t.Fatalf("corruption at byte %d went undetected", pos)
			}
		}
	}
}

// TestTruncationDetected cuts an encoded frame at every length and
// requires a read error (typically io.ErrUnexpectedEOF) for each prefix.
func TestTruncationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteResults(randResults(rng, 17)); err != nil {
		t.Fatal(err)
	}
	original := buf.Bytes()
	for cut := 0; cut < len(original); cut++ {
		if _, err := NewReader(bytes.NewReader(original[:cut])).ReadFrame(); err == nil {
			t.Fatalf("truncation at byte %d went undetected", cut)
		}
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	// A hand-built header claiming a payload beyond MaxPayload must be
	// rejected before any allocation is attempted.
	head := []byte{byte(FrameBatch), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F} // ~2^34
	_, err := NewReader(bytes.NewReader(head)).ReadFrame()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized payload: err=%v", err)
	}
}

func TestDecodeBatchLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteBatch(1, randInputs(rng, 50)); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBatch(f.Payload, 49); err == nil {
		t.Fatal("batch over maxTuples accepted")
	}
	if _, _, err := DecodeBatch(f.Payload, 50); err != nil {
		t.Fatalf("batch at maxTuples rejected: %v", err)
	}
}

func TestOpenConfigValidate(t *testing.T) {
	good := []OpenConfig{
		{Engine: EngineSoftUni, Cores: 4, Window: 1024},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardCount: 4, ShardIndex: 3},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardCount: 2, BaseSeqR: 77, BaseSeqS: 12},
		{Engine: EngineSoftUni, Cores: 1, Window: 16, BaseSeqR: 5},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []OpenConfig{
		{Engine: 0, Cores: 4, Window: 1024},
		{Engine: EngineSoftUni, Cores: 0, Window: 1024},
		{Engine: EngineSoftUni, Cores: 4, Window: 0},
		{Engine: EngineSimUni, Cores: 4, Window: 1 << 20},
		{Engine: EngineSoftBi, Cores: 4, Window: 1024, Ordered: true},
		{Engine: EngineSoftBi, Cores: 4, Window: 1024, ShardCount: 2},
		{Engine: EngineSimUni, Cores: 4, Window: 64, ShardCount: 2},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardCount: 4, ShardIndex: 4},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardCount: 4, ShardIndex: -1},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardCount: -1},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardCount: 2048, ShardIndex: 1},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardIndex: 2},
		{Engine: EngineSoftUni, Cores: 4, Window: 1024, ShardCount: 4, ShardIndex: 1, Ordered: true},
		{Engine: EngineSoftBi, Cores: 4, Window: 1024, BaseSeqR: 9},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestOpenShardRoundTrip covers the shard-role fields of the Open frame.
func TestOpenShardRoundTrip(t *testing.T) {
	for _, cfg := range []OpenConfig{
		{Engine: EngineSoftUni, Cores: 2, Window: 512, ShardCount: 8, ShardIndex: 5},
		{Engine: EngineSoftUni, Cores: 2, Window: 512, ShardCount: 3, ShardIndex: 0, BaseSeqR: 1 << 40, BaseSeqS: 123456},
		{Engine: EngineSoftBi, Cores: 2, Window: 512},
	} {
		if got := openRoundTrip(t, cfg); got != cfg {
			t.Errorf("shard open round trip: got %+v, want %+v", got, cfg)
		}
	}
}

// openRoundTrip encodes cfg as an Open frame and decodes it back.
func openRoundTrip(t *testing.T, cfg OpenConfig) OpenConfig {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteOpen(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOpen(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestOpenAuthTokenRoundTrip covers the auth token on the Open frame:
// tokens survive the round trip, a token-less Open carries no token field,
// and oversized tokens are rejected on both ends.
func TestOpenAuthTokenRoundTrip(t *testing.T) {
	for _, cfg := range []OpenConfig{
		{Engine: EngineSoftUni, Cores: 2, Window: 512, AuthToken: "s3cret"},
		{Engine: EngineSoftUni, Cores: 2, Window: 512, ShardCount: 4, ShardIndex: 1, BaseSeqR: 9, AuthToken: strings.Repeat("k", MaxAuthToken)},
		{Engine: EngineSoftBi, Cores: 2, Window: 512, AuthToken: "with\x00binary\xffbytes"},
	} {
		if got := openRoundTrip(t, cfg); got != cfg {
			t.Errorf("auth open round trip: got %+v, want %+v", got, cfg)
		}
	}

	// Token-less frames carry no token field at all.
	plain := OpenConfig{Engine: EngineSoftUni, Cores: 2, Window: 512}
	var withTok, without bytes.Buffer
	tok := plain
	tok.AuthToken = "t"
	if err := NewWriter(&withTok).WriteOpen(tok); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&without).WriteOpen(plain); err != nil {
		t.Fatal(err)
	}
	if withTok.Len() != without.Len()+3 { // tag + length + 1 token byte
		t.Errorf("token field sizing off: %d vs %d bytes", withTok.Len(), without.Len())
	}

	// Oversized tokens: Validate refuses to build them, and a hand-built
	// payload claiming one is rejected.
	big := plain
	big.AuthToken = strings.Repeat("x", MaxAuthToken+1)
	if err := big.Validate(); err == nil {
		t.Error("Validate accepted oversized auth token")
	}
	f, err := NewReader(&without).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	okPrefix := append([]byte(nil), f.Payload...)
	b := appendFieldString(append([]byte(nil), okPrefix...), openTagAuthToken, big.AuthToken)
	if _, err := DecodeOpen(b); err == nil || !strings.Contains(err.Error(), "auth token") {
		t.Errorf("oversized token accepted: %v", err)
	}
	// A token length that overruns the payload is a framing error.
	b2 := appendUvarint(appendUvarint(okPrefix, openTagAuthToken), 8) // claims 8 bytes, none follow
	if _, err := DecodeOpen(b2); err == nil {
		t.Error("truncated token field accepted")
	}
}

func TestParseEngineKind(t *testing.T) {
	for name, want := range map[string]EngineKind{
		"uni": EngineSoftUni, "bi": EngineSoftBi, "sim": EngineSimUni,
		"soft-uni": EngineSoftUni, "soft-bi": EngineSoftBi, "sim-uni": EngineSimUni,
	} {
		got, err := ParseEngineKind(name)
		if err != nil || got != want {
			t.Errorf("ParseEngineKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseEngineKind("gpu"); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestReaderSequence drives a mixed frame sequence through one reader to
// make sure scratch-buffer reuse between frames does not corrupt payloads.
func TestReaderSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	batches := make([][]core.Input, 20)
	for i := range batches {
		batches[i] = randInputs(rng, 1+rng.Intn(100))
		if err := w.WriteBatch(uint64(i), batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteCredit(1 + i); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := range batches {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		seq, got, err := DecodeBatch(f.Payload, 0)
		if err != nil || seq != uint64(i) || len(got) != len(batches[i]) {
			t.Fatalf("batch %d: seq=%d len=%d err=%v", i, seq, len(got), err)
		}
		f, err = r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := DecodeCredit(f.Payload); err != nil || n != 1+i {
			t.Fatalf("credit %d: n=%d err=%v", i, n, err)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// chunkReader serves its chunks one Read call at a time (a Read shorter
// than the chunk leaves the rest for the next call) and counts the calls.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.reads++
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestFrameBuffered pins the non-blocking probe the server's credit
// coalescing and batch merging rely on: true, with the frame's type, only
// for a whole frame already in the read buffer, never a read of its own,
// false for a partly arrived frame, a frame larger than the buffer, and a
// malformed header.
func TestFrameBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frame := func(n int) []byte {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteBatch(1, randInputs(rng, n)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b, c := frame(64), frame(64), frame(64)
	src := &chunkReader{chunks: [][]byte{
		append(append(append([]byte{}, a...), b...), c[:3]...),
		c[3:],
	}}
	r := NewReader(src)
	step := func(wantBuffered bool, wantReads int) {
		t.Helper()
		typ, got := r.FrameBuffered()
		if got != wantBuffered || src.reads != wantReads {
			t.Fatalf("FrameBuffered = %v after %d reads, want %v after %d", got, src.reads, wantBuffered, wantReads)
		}
		if got && typ != FrameBatch {
			t.Fatalf("FrameBuffered reported a %v frame, want %v", typ, FrameBatch)
		}
	}
	step(false, 0) // nothing buffered yet, and the probe does not read
	for i, want := range []struct {
		buffered bool
		reads    int
	}{{true, 1}, {false, 1}, {false, 2}} {
		if _, err := r.ReadFrame(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		step(want.buffered, want.reads)
	}

	// A frame over the buffer size is never whole in it, even when every
	// byte the buffer can hold has arrived.
	big := frame(600)
	if len(big) <= 4096 {
		t.Fatalf("big frame is only %d bytes", len(big))
	}
	r = NewReader(bytes.NewReader(append(big, a...)))
	if _, err := r.br.Peek(1); err != nil {
		t.Fatal(err)
	}
	if _, whole := r.FrameBuffered(); r.br.Buffered() != 4096 || whole {
		t.Fatalf("FrameBuffered = true over %d buffered bytes of a %d-byte frame", r.br.Buffered(), len(big))
	}
	if _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, whole := r.FrameBuffered(); !whole {
		t.Fatal("small frame behind a big one not reported buffered")
	}

	// A control frame behind a batch is reported with its own type.
	var ctl bytes.Buffer
	if err := NewWriter(&ctl).WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	r = NewReader(bytes.NewReader(append(append([]byte{}, a...), ctl.Bytes()...)))
	if _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if typ, whole := r.FrameBuffered(); !whole || typ != FrameCheckpoint {
		t.Fatalf("FrameBuffered = %v, %v behind a batch, want %v, true", typ, whole, FrameCheckpoint)
	}

	// A length uvarint that never terminates is not a frame.
	r = NewReader(bytes.NewReader(append([]byte{byte(FrameBatch)}, bytes.Repeat([]byte{0xff}, 12)...)))
	r.br.Peek(1)
	if _, whole := r.FrameBuffered(); whole {
		t.Fatal("malformed header reported as a buffered frame")
	}
}

// TestCheckpointFrameRoundTrips covers the durable-checkpoint control
// frames: Checkpoint is empty, CheckpointDone carries the snapshot
// summary, and the OpenAck resume tail round-trips — present only when
// Resumed is set, so old clients never see unexpected trailing bytes.
func TestCheckpointFrameRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	info := RebalanceInfo{TuplesR: 7, TuplesS: 8, SeqR: 1001, SeqS: 999}
	if err := w.WriteCheckpointDone(info); err != nil {
		t.Fatal(err)
	}
	resumed := OpenAck{Credits: 8, Session: 3, Resumed: true, ResumeSeqR: 1 << 40, ResumeSeqS: 77}
	if err := w.WriteOpenAck(resumed); err != nil {
		t.Fatal(err)
	}
	plain := OpenAck{Credits: 8, Session: 4}
	if err := w.WriteOpenAck(plain); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	f, err := r.ReadFrame()
	if err != nil || f.Type != FrameCheckpoint || len(f.Payload) != 0 {
		t.Fatalf("checkpoint frame: %+v err=%v", f, err)
	}
	f, _ = r.ReadFrame()
	if f.Type != FrameCheckpointDone {
		t.Fatalf("checkpoint-done type: %v", f.Type)
	}
	got, err := DecodeCheckpointDone(f.Payload)
	if err != nil || got != info {
		t.Fatalf("checkpoint-done round trip: got %+v err=%v", got, err)
	}
	f, _ = r.ReadFrame()
	ack, err := DecodeOpenAck(f.Payload)
	if err != nil || ack != resumed {
		t.Fatalf("resumed open-ack round trip: got %+v err=%v", ack, err)
	}
	f, _ = r.ReadFrame()
	ack, err = DecodeOpenAck(f.Payload)
	if err != nil || ack != plain {
		t.Fatalf("plain open-ack round trip: got %+v err=%v", ack, err)
	}
	if ack.Resumed || ack.ResumeSeqR != 0 || ack.ResumeSeqS != 0 {
		t.Fatalf("plain open-ack grew a resume tail: %+v", ack)
	}
}

// TestOpenAckResumeFlagValidated rejects a resumed field whose value is
// not the defined 1: a corrupt flag must not be silently treated as
// either form.
func TestOpenAckResumeFlagValidated(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteOpenAck(OpenAck{Credits: 2, Session: 9, Resumed: true, ResumeSeqR: 5, ResumeSeqS: 6}); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), f.Payload...)
	flagAt := bytes.Index(payload, []byte{ackTagResumed, 1, 1}) + 2
	if flagAt < 2 {
		t.Fatalf("no resumed field in %x", payload)
	}
	payload[flagAt] = 2
	if _, err := DecodeOpenAck(payload); err == nil {
		t.Fatal("accepted open-ack with invalid resume flag")
	}
}

// TestOpenProbeKernelRoundTrip covers the probe-kernel field of the Open
// frame: explicit kernels survive the round trip (with or without an auth
// token), an auto-kernel Open carries no kernel field at all, and invalid
// kernel codes are rejected on both ends.
func TestOpenProbeKernelRoundTrip(t *testing.T) {
	for _, cfg := range []OpenConfig{
		{Engine: EngineSoftUni, Cores: 2, Window: 512, ProbeKernel: stream.KernelHash},
		{Engine: EngineSoftUni, Cores: 2, Window: 512, ProbeKernel: stream.KernelScan, AuthToken: "s3cret"},
		{Engine: EngineSoftUni, Cores: 2, Window: 512, ShardCount: 4, ShardIndex: 3, BaseSeqR: 7, ProbeKernel: stream.KernelHash},
	} {
		if got := openRoundTrip(t, cfg); got != cfg {
			t.Errorf("probe-kernel open round trip: got %+v, want %+v", got, cfg)
		}
	}

	plain := OpenConfig{Engine: EngineSoftUni, Cores: 2, Window: 512}
	kern := plain
	kern.ProbeKernel = stream.KernelScan
	var withKern, without bytes.Buffer
	if err := NewWriter(&withKern).WriteOpen(kern); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&without).WriteOpen(plain); err != nil {
		t.Fatal(err)
	}
	if withKern.Len() != without.Len()+3 { // tag + length + kernel byte
		t.Errorf("kernel field sizing off: %d vs %d bytes", withKern.Len(), without.Len())
	}

	// Bad configurations: an undefined kernel code, and a kernel forced on
	// an engine that has no probe kernels.
	bad := plain
	bad.ProbeKernel = stream.ProbeKernel(9)
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted undefined probe kernel code")
	}
	sim := OpenConfig{Engine: EngineSimUni, Cores: 2, Window: 512, ProbeKernel: stream.KernelHash}
	if err := sim.Validate(); err == nil {
		t.Error("Validate accepted probe kernel on the simulated engine")
	}
	// A hand-built payload with a bogus kernel byte is rejected in decode.
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteOpen(kern); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), f.Payload...)
	payload[len(payload)-1] = 9
	if _, err := DecodeOpen(payload); err == nil {
		t.Error("accepted open with undefined probe kernel byte")
	}
}

// TestOpenTenantRoundTrip covers the tenant identity on the v2 Open
// frame: tenants survive the round trip, and malformed identities are
// rejected by Validate.
func TestOpenTenantRoundTrip(t *testing.T) {
	cfgs := []OpenConfig{
		{Engine: EngineSoftUni, Cores: 2, Window: 512, Tenant: "acme"},
		{Engine: EngineSoftUni, Cores: 2, Window: 512, Tenant: "team-7.prod:eu_west", AuthToken: "s3cret", ProbeKernel: stream.KernelHash},
		{Engine: EngineSoftUni, Cores: 2, Window: 512, ShardCount: 4, ShardIndex: 1, BaseSeqR: 9, Tenant: strings.Repeat("t", MaxTenant)},
	}
	for _, cfg := range cfgs {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteOpen(cfg); err != nil {
			t.Fatal(err)
		}
		f, err := NewReader(&buf).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeOpen(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != cfg {
			t.Errorf("tenant open round trip: got %+v, want %+v", got, cfg)
		}
	}

	for _, bad := range []string{
		strings.Repeat("x", MaxTenant+1), // too long
		"has space",                      // charset
		"naïve",                          // non-ASCII
		"tab\there",
	} {
		cfg := OpenConfig{Engine: EngineSoftUni, Cores: 2, Window: 512, Tenant: bad}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted malformed tenant %q", bad)
		}
	}
	if !ValidTenant("a") || !ValidTenant("A-Z.a_z:0-9") {
		t.Error("ValidTenant rejected well-formed identities")
	}
	if ValidTenant("") {
		t.Error("ValidTenant accepted the empty string")
	}
}

// TestOpenV2UnknownFieldSkipped: a v2 Open carrying an unknown field tag
// still decodes — that is the forward-compatibility contract that lets the
// encoding grow without a v3.
func TestOpenV2UnknownFieldSkipped(t *testing.T) {
	cfg := OpenConfig{Engine: EngineSoftUni, Cores: 2, Window: 512, Tenant: "acme"}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteOpen(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), f.Payload...)
	payload = appendUvarint(payload, 99) // unknown tag
	payload = appendUvarint(payload, 3)
	payload = append(payload, 0xDE, 0xAD, 0xBF)
	got, err := DecodeOpen(payload)
	if err != nil {
		t.Fatalf("v2 open with unknown field rejected: %v", err)
	}
	if got != cfg {
		t.Errorf("unknown-field open decoded as %+v, want %+v", got, cfg)
	}
	// A field whose length overruns the payload is still a framing error.
	trunc := append([]byte(nil), f.Payload...)
	trunc = appendUvarint(trunc, 99)
	trunc = appendUvarint(trunc, 8) // claims 8 bytes, none follow
	if _, err := DecodeOpen(trunc); err == nil {
		t.Error("overrunning unknown field accepted")
	}
}

// TestOpenAckV2RoundTrips covers the OpenAck encoding: accepting acks
// (with and without the checkpoint-resume fields) and typed rejections
// with a retry-after hint all survive the round trip.
func TestOpenAckV2RoundTrips(t *testing.T) {
	acks := []OpenAck{
		{Credits: 16, Session: 42},
		{Credits: 8, Session: 3, Resumed: true, ResumeSeqR: 1 << 40, ResumeSeqS: 77},
		{Reject: RejectUnauthorized},
		{Reject: RejectQuotaSessions},
		{Reject: RejectQuotaMemory, RetryAfter: 250 * time.Millisecond},
		{Reject: RejectRateLimited, RetryAfter: 3 * time.Second},
	}
	for _, ack := range acks {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteOpenAck(ack); err != nil {
			t.Fatal(err)
		}
		f, err := NewReader(&buf).ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeOpenAck(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != ack {
			t.Errorf("v2 open-ack round trip: got %+v, want %+v", got, ack)
		}
	}

	// An accepting ack without credits is invalid.
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteOpenAck(OpenAck{Session: 9}); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOpenAck(f.Payload); err == nil {
		t.Error("creditless open-ack accepted")
	}
}

// TestHandshakeGoldenBytes pins the Open and OpenAck encodings byte for
// byte, CRC included. The expected frames were captured from the encoder
// that still carried the v1 positional layout beside v2, so they prove
// deleting v1 left every v2 byte where it was. The last case is a v1 Open
// frame from that encoder, which DecodeOpen must refuse by version. The
// state-cut frames (StateChunk, CheckpointDone, RebalanceCommit) were
// captured before checkpoint files were made of them; a checkpoint file
// reads back only while these bytes hold.
func TestHandshakeGoldenBytes(t *testing.T) {
	info := RebalanceInfo{TuplesR: 3, TuplesS: 300, SeqR: 1 << 40, SeqS: 77}
	cases := []struct {
		name  string
		write func(*Writer) error
		want  string
	}{
		{"open, every tag", func(w *Writer) error {
			return w.WriteOpen(OpenConfig{Engine: EngineSoftUni, Cores: 8, Window: 1 << 14, Ordered: true,
				ShardCount: 4, ShardIndex: 2, BaseSeqR: 99, BaseSeqS: 1 << 40,
				AuthToken: "hunter2", ProbeKernel: stream.KernelScan, Tenant: "acme.prod"})
		}, "01370201010102010803038080010401010501040601020701630806808080808020090768756e746572320a01020b0961636d652e70726f64564154e1"},
		{"open, minimal", func(w *Writer) error {
			return w.WriteOpen(OpenConfig{Engine: EngineSoftUni, Cores: 1, Window: 64})
		}, "010a0201010102010103014076cf802e"},
		{"ack, accept", func(w *Writer) error {
			return w.WriteOpenAck(OpenAck{Credits: 16, Session: 42})
		}, "0208000201011002012a3861ac72"},
		{"ack, resumed", func(w *Writer) error {
			return w.WriteOpenAck(OpenAck{Credits: 8, Session: 3, Resumed: true, ResumeSeqR: 1 << 40, ResumeSeqS: 77})
		}, "02160002010108020103030101040680808080802005014d973b918d"},
		{"ack, reject with retry-after", func(w *Writer) error {
			return w.WriteOpenAck(OpenAck{Reject: RejectRateLimited, RetryAfter: 1500 * time.Millisecond})
		}, "020900020601040702dc0bdc5a4025"},
		{"state chunk", func(w *Writer) error {
			return w.WriteStateChunk([]core.Input{
				{Side: stream.SideR, Tuple: stream.Tuple{Key: 7, Val: 0xdeadbeef, Seq: 0}},
				{Side: stream.SideS, Tuple: stream.Tuple{Key: 1 << 31, Val: 1, Seq: 1 << 40}},
			})
		}, "0a1a020100000007deadbeef0002800000000000000180808080802015528a27"},
		{"state chunk, empty", func(w *Writer) error {
			return w.WriteStateChunk(nil)
		}, "0a0100bb36fa75"},
		{"checkpoint done", func(w *Writer) error {
			return w.WriteCheckpointDone(info)
		}, "0d0a03ac028080808080204dbd54cbe1"},
		{"rebalance commit", func(w *Writer) error {
			return w.WriteRebalanceCommit(info)
		}, "0b0a03ac028080808080204d55e101a2"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(NewWriter(&buf)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	v1, _ := hex.DecodeString("01090101014000000000007eb6164d")
	f, err := NewReader(bytes.NewReader(v1)).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOpen(f.Payload); err == nil || !strings.Contains(err.Error(), "protocol version 1 not supported") {
		t.Errorf("v1 open: err = %v, want the unsupported version named", err)
	}
}

// TestRejectCodeStrings pins the reject-code strings: they double as the
// reason labels of streamd_sessions_rejected_total, so renaming one is a
// metrics-schema break.
func TestRejectCodeStrings(t *testing.T) {
	want := map[RejectCode]string{
		RejectNone:          "none",
		RejectUnauthorized:  "unauthorized",
		RejectQuotaSessions: "quota_sessions",
		RejectQuotaMemory:   "quota_memory",
		RejectRateLimited:   "rate_limited",
	}
	for code, s := range want {
		if code.String() != s {
			t.Errorf("RejectCode(%d).String() = %q, want %q", code, code.String(), s)
		}
		if !code.Valid() {
			t.Errorf("RejectCode(%d) not Valid", code)
		}
	}
	if RejectCode(99).Valid() {
		t.Error("undefined reject code Valid")
	}
}

// TestFrameGoldenBytes pins, byte for byte with the CRC, every frame type
// TestHandshakeGoldenBytes does not: the data frames (Batch, Results,
// Credit), the session's end (Close, Closed, Error) and the two payloadless
// cut requests (RebalancePrepare, Checkpoint). The expected frames were
// captured from the encoders before they were split out of frame.go, so
// they prove the move left every byte where it was.
func TestFrameGoldenBytes(t *testing.T) {
	cases := []struct {
		name  string
		write func(*Writer) error
		want  string
	}{
		{"batch", func(w *Writer) error {
			return w.WriteBatch(1<<40, []core.Input{
				{Side: stream.SideR, Tuple: stream.Tuple{Key: 7, Val: 0xdeadbeef, Seq: 99}},
				{Side: stream.SideS, Tuple: stream.Tuple{Key: 1 << 31, Val: 1}},
			})
		}, "0319808080808020020100000007deadbeef0280000000000000015bb40657"},
		{"batch, empty", func(w *Writer) error {
			return w.WriteBatch(0, nil)
		}, "03020000fd07674b"},
		{"results", func(w *Writer) error {
			return w.WriteResults([]stream.Result{
				{R: stream.Tuple{Key: 7, Val: 0xdeadbeef, Seq: 0}, S: stream.Tuple{Key: 7, Val: 1, Seq: 1 << 40}},
				{R: stream.Tuple{Key: 1 << 31, Val: 2, Seq: 300}, S: stream.Tuple{Key: 1 << 31, Val: 3, Seq: 127}},
			})
		}, "042b0200000007deadbeef0000000007000000018080808080208000000000000002ac0280000000000000037f1557c63f"},
		{"credit", func(w *Writer) error { return w.WriteCredit(300) }, "0502ac0215368930"},
		{"close", func(w *Writer) error { return w.WriteClose() }, "06003b614ab8"},
		{"closed", func(w *Writer) error {
			return w.WriteClosed(Stats{TuplesIn: 1 << 40, BatchesIn: 300, ResultsOut: 7})
		}, "0709808080808020ac0207cf7a4439"},
		{"error", func(w *Writer) error { return w.WriteError("bad batch: wire: truncated u32") }, "081e6261642062617463683a20776972653a207472756e636174656420753332dfe6f3e1"},
		{"rebalance prepare", func(w *Writer) error { return w.WriteRebalancePrepare() }, "0900abde5729"},
		{"checkpoint", func(w *Writer) error { return w.WriteCheckpoint() }, "0c00dbb4a3a6"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(NewWriter(&buf)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
