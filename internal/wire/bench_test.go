package wire

import (
	"io"
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

func benchInputs(n int) []core.Input {
	rng := rand.New(rand.NewSource(1))
	inputs := make([]core.Input, n)
	for i := range inputs {
		side := stream.SideR
		if i%2 == 1 {
			side = stream.SideS
		}
		inputs[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: rng.Uint32(), Val: rng.Uint32()}}
	}
	return inputs
}

func benchResults(n int) []stream.Result {
	rng := rand.New(rand.NewSource(2))
	results := make([]stream.Result, n)
	for i := range results {
		results[i] = stream.Result{
			R: stream.Tuple{Key: rng.Uint32(), Val: rng.Uint32(), Seq: uint64(i)},
			S: stream.Tuple{Key: rng.Uint32(), Val: rng.Uint32(), Seq: uint64(i) + 1},
		}
	}
	return results
}

// encodeBatchPayload round-trips one Batch frame through a Writer/Reader
// pair and returns a stable copy of its payload.
func encodeBatchPayload(tb testing.TB, inputs []core.Input) []byte {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- NewWriter(pw).WriteBatch(1, inputs)
	}()
	f, err := NewReader(pr).ReadFrame()
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-done; err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), f.Payload...)
}

// BenchmarkDecodeBatch is the pre-optimization server decode: one fresh
// input slice per frame.
func BenchmarkDecodeBatch(b *testing.B) {
	payload := encodeBatchPayload(b, benchInputs(256))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBatch(payload, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBatchInto is the pooled decode the session's ingest uses: the
// buffer is handed back every frame, so steady state is allocation-free.
func BenchmarkDecodeBatchInto(b *testing.B) {
	payload := encodeBatchPayload(b, benchInputs(256))
	var buf []core.Input
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, decoded, err := DecodeBatchInto(payload, 0, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = decoded
	}
}

// TestDecodeBatchIntoAllocFree pins the acceptance criterion: decoding
// into a warm reused buffer performs zero heap allocations per frame.
func TestDecodeBatchIntoAllocFree(t *testing.T) {
	payload := encodeBatchPayload(t, benchInputs(256))
	buf := make([]core.Input, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		_, decoded, err := DecodeBatchInto(payload, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = decoded
	})
	if allocs != 0 {
		t.Fatalf("DecodeBatchInto with warm buffer: %v allocs/frame, want 0", allocs)
	}
}

// BenchmarkWriteResults measures the emit serialization path with the
// pre-sized scratch; steady state should not allocate.
func BenchmarkWriteResults(b *testing.B) {
	results := benchResults(1024)
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteResults(results); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteResultsAllocFree: a warm Writer serializes Results frames with
// zero heap allocations (scratch pre-sized, CRC via update chaining).
func TestWriteResultsAllocFree(t *testing.T) {
	results := benchResults(1024)
	w := NewWriter(io.Discard)
	if err := w.WriteResults(results); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.WriteResults(results); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteResults with warm scratch: %v allocs/frame, want 0", allocs)
	}
}

// BenchmarkWriteBatch measures the client-side batch serialization path.
func BenchmarkWriteBatch(b *testing.B) {
	inputs := benchInputs(256)
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteBatch(uint64(i), inputs); err != nil {
			b.Fatal(err)
		}
	}
}
