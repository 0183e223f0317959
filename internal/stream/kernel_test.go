package stream

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

var (
	allComparators = []Comparator{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	bothFields     = []Field{FieldKey, FieldVal}
	// edgeValues are the operands where the lane arithmetic's borrow and
	// overflow corners sit; nearEdge draws from them and their neighbours.
	edgeValues = []uint32{0, 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}
)

// nearEdge maps a selector byte onto an edge value or one of its two
// neighbours (wrapping around zero and 2^32−1).
func nearEdge(sel byte) uint32 {
	return edgeValues[int(sel)%len(edgeValues)] + uint32(int(sel)/len(edgeValues)%3) - 1
}

// lanePaths is every lane path Next can take on this machine: the
// portable Go lanes, and the AVX2 sweep where the CPU runs it.
func lanePaths() []bool {
	if hasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// checkSweep holds every layer of the block-scan kernel over one word run
// to scalar Comparator.Eval: the portable level-1 verdict and level-2 mask
// of each 64-word block, then on every lane path BlockMask on the same
// block, Next from every block base, and the whole-run Next walk.
func checkSweep(t *testing.T, words []uint64, field Field, cmp Comparator, lhs uint32) {
	t.Helper()
	var want []int
	for i, w := range words {
		if cmp.Eval(lhs, field.Extract(TupleFromWord(w))) {
			want = append(want, i)
		}
	}
	s := NewSweep(field, cmp, lhs)
	hits := want
	var masks []uint64 // want's hit mask per block
	for base := 0; base < len(words); base += BlockBits {
		block := words[base:min(base+BlockBits, len(words))]
		var mask uint64
		for ; len(hits) > 0 && hits[0] < base+len(block); hits = hits[1:] {
			mask |= 1 << uint(hits[0]-base)
		}
		masks = append(masks, mask)
		if got := s.anyHit(block); got != (mask != 0) {
			t.Fatalf("lhs=%d %v %v block@%d (%d words): level-1 verdict %v, want %v", lhs, cmp, field, base, len(block), got, mask != 0)
		}
		if got := s.mask(block); got != mask {
			t.Fatalf("lhs=%d %v %v block@%d (%d words): level-2 mask %064b, want %064b", lhs, cmp, field, base, len(block), got, mask)
		}
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx2 := range lanePaths() {
		useAVX2 = avx2
		for b, mask := range masks {
			from := b * BlockBits
			if got := BlockMask(words[from:], field, cmp, lhs); got != mask {
				t.Fatalf("%s lanes, lhs=%d %v %v block@%d: BlockMask %064b, want %064b", ScanLanes(), lhs, cmp, field, from, got, mask)
			}
			wantBase, wantMask := len(words), uint64(0)
			for i := b; i < len(masks); i++ {
				if masks[i] != 0 {
					wantBase, wantMask = i*BlockBits, masks[i]
					break
				}
			}
			if base, m := s.Next(words, from); base != wantBase || m != wantMask {
				t.Fatalf("%s lanes, lhs=%d %v %v over %d words: Next from %d = (%d, %064b), want (%d, %064b)",
					ScanLanes(), lhs, cmp, field, len(words), from, base, m, wantBase, wantMask)
			}
		}
		var got []int
		for base, m := s.Next(words, 0); m != 0; base, m = s.Next(words, base+BlockBits) {
			for ; m != 0; m &= m - 1 {
				got = append(got, base+bits.TrailingZeros64(m))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s lanes, lhs=%d %v %v over %d words: Next walk hit %v, want %v", ScanLanes(), lhs, cmp, field, len(words), got, want)
		}
	}
}

// TestSweepLanePathsAgree holds the AVX2 and portable lanes to each other
// and to Comparator.Eval where the vector code has its seams: every run
// length 0..300 (full blocks, quads of a short block, the last ≤ 3 single
// words), Next from every block base, and one planted word at lane 0 and
// lane 63 of the first and last full block, at the short block's first
// lane and last quad lane, and in each of the last three words. Background
// and planted fields cycle through the edge values; every edge value is an
// lhs, for all six comparators on both fields.
func TestSweepLanePathsAgree(t *testing.T) {
	for n := 0; n <= 300; n++ {
		full := n / BlockBits * BlockBits // first word of the short block
		background := Tuple{Key: edgeValues[n%5], Val: edgeValues[(n+2)%5]}.Word()
		v := edgeValues[n/5%5]
		planted := Tuple{Key: v, Val: v}.Word()
		at := []int{0, 63, full - 64, full - 1, full, full + (n-full)&^3 - 1, n - 3, n - 2, n - 1}
		words := make([]uint64, n)
		for _, p := range at {
			if p < 0 || p >= n {
				continue
			}
			for i := range words {
				words[i] = background
			}
			words[p] = planted
			for _, lhs := range edgeValues {
				for _, cmp := range allComparators {
					for _, field := range bothFields {
						checkSweep(t, words, field, cmp, lhs)
					}
				}
			}
		}
	}
}

// TestBlockMaskMatchesComparatorEval cross-checks the block-scan kernel
// against scalar Comparator.Eval for every comparator × field
// combination: over random narrow-domain runs of 0..200 words (so
// equality actually fires, and short, full and tail blocks all occur),
// then over a run holding every pairing of edge-adjacent key and value,
// probed with every edge-adjacent lhs.
func TestBlockMaskMatchesComparatorEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		words := make([]uint64, rng.Intn(201))
		for i := range words {
			words[i] = Tuple{Key: uint32(rng.Intn(8)), Val: uint32(rng.Intn(8))}.Word()
		}
		lhs := uint32(rng.Intn(8))
		for _, cmp := range allComparators {
			for _, field := range bothFields {
				checkSweep(t, words, field, cmp, lhs)
			}
		}
	}
	const sels = 15 // 5 edges × 3 offsets
	var edges []uint64
	for k := 0; k < sels; k++ {
		for v := 0; v < sels; v++ {
			edges = append(edges, Tuple{Key: nearEdge(byte(k)), Val: nearEdge(byte(v))}.Word())
		}
	}
	for l := 0; l < sels; l++ {
		for _, cmp := range allComparators {
			for _, field := range bothFields {
				checkSweep(t, edges, field, cmp, nearEdge(byte(l)))
			}
		}
	}
}

// FuzzBlockScan is the differential fuzz target for the scan kernel's
// lanes: a ring of up to 600 words (several full blocks and a tail per
// run) whose fields sit on and around the edge values, split at a wrap
// point into the older/newer runs WordSegments would hand a probe, each
// run checked layer by layer, on every lane path, against
// Comparator.Eval for all six comparators on both fields.
func FuzzBlockScan(f *testing.F) {
	f.Add([]byte{}, byte(0), uint16(0))
	f.Add([]byte{0, 0, 1, 5, 14, 3, 9, 9}, byte(3), uint16(2))
	f.Add(bytes.Repeat([]byte{4, 12, 7, 2, 0, 11}, 60), byte(4), uint16(77))
	f.Add(bytes.Repeat([]byte{9, 1, 3, 14, 6, 0, 12, 2}, 150), byte(7), uint16(131))
	f.Fuzz(func(t *testing.T, data []byte, lhsSel byte, wrap uint16) {
		ring := make([]uint64, min(len(data)/2, 600))
		for i := range ring {
			ring[i] = Tuple{Key: nearEdge(data[2*i]), Val: nearEdge(data[2*i+1])}.Word()
		}
		head := int(wrap) % (len(ring) + 1)
		lhs := nearEdge(lhsSel)
		for _, cmp := range allComparators {
			for _, field := range bothFields {
				checkSweep(t, ring[head:], field, cmp, lhs)
				checkSweep(t, ring[:head], field, cmp, lhs)
			}
		}
	})
}

// TestBlockMaskTruncates: words past the 64-lane block are ignored, and
// an empty block yields an empty mask.
func TestBlockMaskTruncates(t *testing.T) {
	if m := BlockMask(nil, FieldKey, CmpEQ, 0); m != 0 {
		t.Fatalf("empty block mask = %x, want 0", m)
	}
	words := make([]uint64, BlockBits+8)
	for i := range words {
		words[i] = Tuple{Key: 5}.Word()
	}
	if m := BlockMask(words, FieldKey, CmpEQ, 5); m != ^uint64(0) {
		t.Fatalf("oversized block mask = %x, want all ones", m)
	}
}

func TestParseProbeKernel(t *testing.T) {
	cases := []struct {
		in   string
		want ProbeKernel
		ok   bool
	}{
		{"", KernelAuto, true},
		{"auto", KernelAuto, true},
		{"hash", KernelHash, true},
		{"scan", KernelScan, true},
		{"block-scan", KernelScan, true},
		{"simd", 0, false},
	}
	for _, c := range cases {
		got, err := ParseProbeKernel(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseProbeKernel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseProbeKernel(%q) succeeded, want error", c.in)
		}
	}
	for _, k := range []ProbeKernel{KernelAuto, KernelHash, KernelScan} {
		if !k.Valid() {
			t.Fatalf("%v not Valid", k)
		}
		back, err := ParseProbeKernel(k.String())
		if err != nil || back != k {
			t.Fatalf("round-trip %v → %q → %v, %v", k, k.String(), back, err)
		}
	}
	if ProbeKernel(9).Valid() {
		t.Fatal("kernel code 9 reported Valid")
	}
}
