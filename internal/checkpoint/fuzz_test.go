package checkpoint

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// The fuzz targets harden the snapshot-file decoder against arbitrary
// input — a checkpoint directory is operator-writable disk state, so the
// loader must treat every file as untrusted: whatever the bytes, Decode
// either returns an error or a value that survives a re-encode/re-decode
// round trip, never panics, and never allocates past what the file
// actually carries. The frame payloads themselves are fuzzed in
// internal/wire (FuzzDecodeControl); FuzzDecodeManifest and
// FuzzDecodeChunk drive structured values through Encode instead, so
// every input reaches Decode's own checks past the frame CRCs.

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

// FuzzDecode feeds arbitrary bytes to the whole-file decoder: any
// accepted snapshot must re-encode and re-decode to the same value.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 5, 64} {
		data, err := Encode(randSnapshot(rng, n))
		if err != nil {
			f.Fatal(err)
		}
		seedWithFlips(f, data)
	}
	// One multi-chunk file, seeded without flips: flipping a ~75KB seed
	// every 16 bytes would bloat the corpus for no added decoder coverage.
	multi, err := Encode(randSnapshot(rng, wire.MaxStateChunk+3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	// The captured previous-generation (ACSCKPT1) file, which must be
	// rejected whole.
	v1, err := os.ReadFile(filepath.Join("testdata", "acsckpt1.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	seedWithFlips(f, v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		rt, err := Encode(snap)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		snap2, err := Decode(rt)
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if snap2.Meta != snap.Meta || len(snap2.Tuples) != len(snap.Tuples) {
			t.Fatalf("snapshot round trip diverged: %+v (%d tuples) vs %+v (%d tuples)",
				snap.Meta, len(snap.Tuples), snap2.Meta, len(snap2.Tuples))
		}
	})
}

// FuzzDecodeManifest writes an empty snapshot of an arbitrary engine
// shape and checks that Decode accepts exactly the shapes a session Open
// may carry, and returns an accepted shape unchanged.
func FuzzDecodeManifest(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 4; i++ {
		m := randSnapshot(rng, 0).Meta
		f.Add(m.Engine, m.Cores, m.Window, m.Ordered, m.ShardCount, m.ShardIndex, m.SeqR+uint64(i)<<40, m.SeqS)
	}
	uni, bi, sim := byte(wire.EngineSoftUni), byte(wire.EngineSoftBi), byte(wire.EngineSimUni)
	f.Add(uni, 1, maxWindow, false, 0, 0, uint64(0), uint64(0))
	f.Add(uni, 1, maxWindow+1, false, 0, 0, uint64(0), uint64(0))
	f.Add(uni, 0, 64, false, 0, 0, uint64(0), uint64(0))
	f.Add(uni, 2, 64, false, 4, 3, uint64(9), uint64(7))
	f.Add(uni, 2, 64, false, 4, 4, uint64(9), uint64(7))
	f.Add(uni, 2, 64, false, 0, 1, uint64(0), uint64(0))
	f.Add(bi, 2, 64, true, 0, 0, uint64(0), uint64(0))
	f.Add(bi, 2, 64, false, 0, 0, uint64(5), uint64(0))
	f.Add(sim, 2, 1<<13, false, 0, 0, uint64(0), uint64(0))
	f.Add(byte(0), 2, 64, false, 0, 0, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, engine byte, cores, window int, ordered bool, shardCount, shardIndex int, seqR, seqS uint64) {
		m := Meta{Engine: engine, Cores: cores, Window: window, Ordered: ordered,
			ShardCount: shardCount, ShardIndex: shardIndex, SeqR: seqR, SeqS: seqS}
		data, err := Encode(Snapshot{Meta: m})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Decode(data)
		valid := wire.OpenConfig{Engine: wire.EngineKind(engine), Cores: cores, Window: window, Ordered: ordered,
			ShardCount: shardCount, ShardIndex: shardIndex, BaseSeqR: seqR, BaseSeqS: seqS}.Validate()
		if (err == nil) != (valid == nil) {
			t.Fatalf("manifest %+v: Decode err=%v, Open validation err=%v", m, err, valid)
		}
		if err == nil && snap.Meta != m {
			t.Fatalf("manifest round trip diverged: %+v vs %+v", snap.Meta, m)
		}
	})
}

// chunkTupleBytes is one fuzzed tuple: side byte, key, val, seq.
const chunkTupleBytes = 1 + 4 + 4 + 8

// tuplesOf reads data as a tuple list, chunkTupleBytes per tuple; a
// partial tail is ignored.
func tuplesOf(data []byte) []core.Input {
	var tuples []core.Input
	for ; len(data) >= chunkTupleBytes; data = data[chunkTupleBytes:] {
		tuples = append(tuples, core.Input{Side: stream.Side(data[0]), Tuple: stream.Tuple{
			Key: binary.LittleEndian.Uint32(data[1:]),
			Val: binary.LittleEndian.Uint32(data[5:]),
			Seq: binary.LittleEndian.Uint64(data[9:]),
		}})
	}
	return tuples
}

// bytesOf is the inverse of tuplesOf.
func bytesOf(tuples []core.Input) []byte {
	var b []byte
	for _, in := range tuples {
		b = append(b, byte(in.Side))
		b = binary.LittleEndian.AppendUint32(b, in.Tuple.Key)
		b = binary.LittleEndian.AppendUint32(b, in.Tuple.Val)
		b = binary.LittleEndian.AppendUint64(b, in.Tuple.Seq)
	}
	return b
}

// FuzzDecodeChunk writes arbitrary tuples under a small window and
// arbitrary arrival counters, and checks that Decode accepts exactly the
// files whose tuples all have a valid side and fit both the per-side
// window and the consumed seqs — and then returns every tuple unchanged.
func FuzzDecodeChunk(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 33} {
		snap := randSnapshot(rng, n)
		data := bytesOf(snap.Tuples)
		f.Add(data, 64, snap.Meta.SeqR, snap.Meta.SeqS)
		for pos := 0; pos < len(data); pos += 32 {
			flipped := append([]byte(nil), data...)
			flipped[pos] ^= 0x41
			f.Add(flipped, 64, snap.Meta.SeqR, snap.Meta.SeqS)
		}
		f.Add(data, n/3, snap.Meta.SeqR, snap.Meta.SeqS)                 // a side over the window
		f.Add(data, 64, snap.Meta.TuplesR, snap.Meta.TuplesS/2)          // S over the consumed seqs
		f.Add(data[:len(data)/2], 64, snap.Meta.TuplesR, snap.Meta.SeqS) // a partial tuple
	}
	f.Fuzz(func(t *testing.T, data []byte, window int, seqR, seqS uint64) {
		if window <= 0 || window > maxWindow {
			return // the manifest bounds are FuzzDecodeManifest's
		}
		tuples := tuplesOf(data)
		m := Meta{Engine: byte(wire.EngineSoftUni), Cores: 1, Window: window, SeqR: seqR, SeqS: seqS}
		file, err := Encode(Snapshot{Meta: m, Tuples: tuples})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Decode(file)
		var nr, ns uint64
		sidesValid := true
		for _, in := range tuples {
			switch in.Side {
			case stream.SideR:
				nr++
			case stream.SideS:
				ns++
			default:
				sidesValid = false
			}
		}
		want := sidesValid && nr <= uint64(window) && ns <= uint64(window) && nr <= seqR && ns <= seqS
		if (err == nil) != want {
			t.Fatalf("%d R + %d S tuples (sides valid %v), window %d, seqs (%d, %d): Decode err=%v",
				nr, ns, sidesValid, window, seqR, seqS, err)
		}
		if err != nil {
			return
		}
		if snap.Meta.TuplesR != nr || snap.Meta.TuplesS != ns || len(snap.Tuples) != len(tuples) {
			t.Fatalf("decoded %+v with %d tuples, wrote %d R + %d S", snap.Meta, len(snap.Tuples), nr, ns)
		}
		for i := range tuples {
			if snap.Tuples[i] != tuples[i] {
				t.Fatalf("tuple %d diverged: %+v vs %+v", i, snap.Tuples[i], tuples[i])
			}
		}
	})
}
