package checkpoint

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// maxWindow is the window bound a manifest must respect
// (wire.OpenConfig.Validate's).
const maxWindow = 1 << 26

// randSnapshot builds a snapshot with n window tuples split across both
// sides, sequence-ordered per side the way SnapshotState emits them.
func randSnapshot(rng *rand.Rand, n int) Snapshot {
	s := Snapshot{
		Meta: Meta{
			Engine:     1,
			Cores:      4,
			Window:     1 << 15,
			Ordered:    rng.Intn(2) == 0,
			ShardCount: 1,
			UnixNanos:  1_700_000_000_000_000_000 + rng.Int63n(1_000_000_000),
		},
	}
	var seqR, seqS uint64
	var rs, ss []core.Input
	for i := 0; i < n; i++ {
		in := core.Input{Tuple: stream.Tuple{Key: rng.Uint32(), Val: rng.Uint32()}}
		if rng.Intn(2) == 0 {
			in.Side = stream.SideR
			in.Tuple.Seq = seqR
			seqR++
			rs = append(rs, in)
		} else {
			in.Side = stream.SideS
			in.Tuple.Seq = seqS
			seqS++
			ss = append(ss, in)
		}
	}
	s.Tuples = append(rs, ss...)
	s.Meta.SeqR, s.Meta.SeqS = seqR+17, seqS+3 // window is a suffix of the arrivals
	s.Meta.TuplesR, s.Meta.TuplesS = seqR, seqS
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, wire.MaxStateChunk, wire.MaxStateChunk + 1, 3*wire.MaxStateChunk + 5} {
		snap := randSnapshot(rng, n)
		snap.Meta.UnixNanos = 0 // kept in the file name, not the file
		data, err := Encode(snap)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Meta != snap.Meta {
			t.Fatalf("n=%d: meta diverged: %+v vs %+v", n, got.Meta, snap.Meta)
		}
		if len(got.Tuples) != len(snap.Tuples) {
			t.Fatalf("n=%d: %d tuples, want %d", n, len(got.Tuples), len(snap.Tuples))
		}
		for i := range got.Tuples {
			if got.Tuples[i] != snap.Tuples[i] {
				t.Fatalf("n=%d: tuple %d diverged: %+v vs %+v", n, i, got.Tuples[i], snap.Tuples[i])
			}
		}
	}
}

// TestCorruptionRejected flips one byte at every position of an encoded
// snapshot; every mutation must be rejected (the CRC framing leaves no
// silently-accepted corruption), and none may panic.
func TestCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	snap := randSnapshot(rng, 100)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range data {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x41
		if _, err := Decode(mut); err == nil {
			t.Fatalf("accepted snapshot with byte %d corrupted", pos)
		}
	}
}

// TestTruncationRejected drops bytes off the tail; every torn prefix must
// be rejected — this is the crash-mid-write property the footer enforces.
func TestTruncationRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	snap := randSnapshot(rng, 64)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("accepted snapshot truncated to %d of %d bytes", n, len(data))
		}
	}
}

// TestDecodeBounds rejects manifests whose declared sizes exceed the
// format bounds — the allocation guards that keep a hostile or corrupt
// file from ballooning memory before any tuple is read.
func TestDecodeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))

	over := randSnapshot(rng, 10)
	over.Meta.Window = maxWindow + 1
	data, err := Encode(over)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Error("decoded snapshot with window beyond the format bound")
	}

	// A file carrying more resident tuples on one side than the per-side
	// window must be rejected.
	bad := randSnapshot(rng, 10)
	bad.Meta.Window = int(max(bad.Meta.TuplesR, bad.Meta.TuplesS)) - 1
	data, err = Encode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Error("decoded snapshot with more resident tuples than the window")
	}
}

func TestStoreWriteRestoreAndPrune(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var last Snapshot
	for i := 0; i < 5; i++ {
		snap := randSnapshot(rng, 50+i)
		// Monotone progress: newer snapshots cover more arrivals.
		snap.Meta.SeqR += uint64(i) * 1000
		snap.Meta.UnixNanos += int64(i)
		if _, err := st.Write(snap); err != nil {
			t.Fatal(err)
		}
		last = snap
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retain=2 kept %d files", len(entries))
	}
	got, ok, err := st.LatestValid()
	if err != nil || !ok {
		t.Fatalf("LatestValid: ok=%v err=%v", ok, err)
	}
	if got.Meta != last.Meta {
		t.Fatalf("restored %+v, want newest %+v", got.Meta, last.Meta)
	}
}

// TestCrashMidSnapshotFallsBack simulates a writer killed between the
// temp-file write and the atomic rename, plus a torn rename target: the
// loader must skip both and restore the previous valid snapshot, and the
// next prune must sweep the stale temp file.
func TestCrashMidSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	good := randSnapshot(rng, 40)
	if _, err := st.Write(good); err != nil {
		t.Fatal(err)
	}

	// Crash form 1: the writer died before rename — a stale temp file.
	newer := randSnapshot(rng, 45)
	newer.Meta.SeqR = good.Meta.SeqR + 500
	data, err := Encode(newer)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-crashed.tmp"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash form 2: a torn file under the final name, lexically newer
	// than the good snapshot (e.g. the kernel dropped dirty pages after a
	// rename without the fsync).
	newest := randSnapshot(rng, 45)
	newest.Meta.SeqR = good.Meta.SeqR + 1000
	torn, err := Encode(newest)
	if err != nil {
		t.Fatal(err)
	}
	torn = torn[:len(torn)/2]
	tornName := "ckpt-99999999999999999999-00000000000000000001.ckpt"
	if err := os.WriteFile(filepath.Join(dir, tornName), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStore(dir, 3, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st2.LatestValid()
	if err != nil || !ok {
		t.Fatalf("LatestValid after crash: ok=%v err=%v", ok, err)
	}
	if got.Meta != good.Meta {
		t.Fatalf("restored %+v, want the previous valid snapshot %+v", got.Meta, good.Meta)
	}

	st2.Prune()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale temp file survived prune: %s", e.Name())
		}
	}
}

// TestDecodeDeclaredSizesCostNothing: a small CRC-valid file declaring a
// maximal window and full per-side counts, but carrying no chunks, is
// rejected without allocating for what it declares (the ACSCKPT1 decoder
// sized its tuple slice from the manifest and allocated 4 GiB here).
func TestDecodeDeclaredSizesCostNothing(t *testing.T) {
	const huge = maxWindow
	var buf bytes.Buffer
	buf.WriteString(Magic)
	w := wire.NewWriter(&buf)
	if err := w.WriteOpen(wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: huge,
		BaseSeqR: huge, BaseSeqS: huge}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCheckpointDone(wire.RebalanceInfo{TuplesR: huge, TuplesS: huge, SeqR: huge, SeqS: huge}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(buf.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a file whose footer declares tuples it does not carry")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("decoding a %d-byte file allocated %d KiB", buf.Len(), grew>>10)
	}
}

// TestTrailingDataRejected: nothing may follow the footer — neither a
// stray byte (a torn frame) nor a whole CRC-valid frame.
func TestTrailingDataRejected(t *testing.T) {
	data, err := Encode(randSnapshot(rand.New(rand.NewSource(47)), 30))
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.NewWriter(&frame).WriteStateChunk(nil); err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{{byte(wire.FrameStateChunk)}, frame.Bytes()} {
		if _, err := Decode(append(append([]byte(nil), data...), tail...)); err == nil {
			t.Errorf("accepted a snapshot followed by % x", tail)
		}
	}
}

// installV1 copies the ACSCKPT1 file captured from the previous layout
// into dir under a snapshot name newer than any test snapshot.
func installV1(t *testing.T, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "acsckpt1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	name := "ckpt-00000000000099999999-00000000000000000001.ckpt"
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPreviousGenerationSkipped: an ACSCKPT1 file is skipped like a
// corrupt one — alone it leaves nothing to restore, and beside an older
// ACSCKPT2 file the ACSCKPT2 file is restored.
func TestPreviousGenerationSkipped(t *testing.T) {
	dir := t.TempDir()
	installV1(t, dir)
	st, err := NewStore(dir, 3, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LatestValid(); ok || err != nil {
		t.Fatalf("ACSCKPT1 only: ok=%v err=%v, want nothing to restore", ok, err)
	}

	dir = t.TempDir()
	st, err = NewStore(dir, 3, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	v2 := randSnapshot(rand.New(rand.NewSource(43)), 20)
	if _, err := st.Write(v2); err != nil {
		t.Fatal(err)
	}
	installV1(t, dir)
	got, ok, err := st.LatestValid()
	if err != nil || !ok {
		t.Fatalf("LatestValid: ok=%v err=%v", ok, err)
	}
	if got.Meta != v2.Meta {
		t.Fatalf("restored %+v, want the ACSCKPT2 snapshot %+v", got.Meta, v2.Meta)
	}
}

func TestLatestValidEmptyDir(t *testing.T) {
	st, err := NewStore(t.TempDir(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LatestValid(); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
}
