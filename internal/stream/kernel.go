package stream

import "fmt"

// Probe kernels: the two data-parallel shapes a software join core can
// give its window probe, mirroring the paper's accelerator landscape.
// The hash kernel is the software analogue of a GPU hash-join probe —
// O(matches) lookups against an incrementally maintained index (KeyIndex)
// instead of an O(W) sweep. The block-scan kernel is the software
// analogue of a SIMD lane sweep — the predicate is evaluated over the
// window's dense word column in 64-word blocks, first OR-reduced to "did
// any lane hit", then, only where one did, to a hit bitmask, and full
// tuples are materialized only for set bits.

// ProbeKernel selects which probe kernel a join core runs.
type ProbeKernel uint8

const (
	// KernelAuto picks per condition: the hash kernel for the
	// equi-join-on-key condition, the block-scan kernel otherwise.
	KernelAuto ProbeKernel = iota
	// KernelHash probes a per-core incremental hash index (equi-join on
	// key only).
	KernelHash
	// KernelScan sweeps the window's word column in 64-wide bitmask
	// blocks; it evaluates any join condition.
	KernelScan
)

// String implements fmt.Stringer.
func (k ProbeKernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelHash:
		return "hash"
	case KernelScan:
		return "scan"
	default:
		return fmt.Sprintf("kernel(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined kernel code.
func (k ProbeKernel) Valid() bool { return k <= KernelScan }

// ParseProbeKernel maps a command-line name to a probe kernel. The empty
// string parses as KernelAuto.
func ParseProbeKernel(name string) (ProbeKernel, error) {
	switch name {
	case "", "auto":
		return KernelAuto, nil
	case "hash":
		return KernelHash, nil
	case "scan", "block-scan":
		return KernelScan, nil
	default:
		return 0, fmt.Errorf("stream: unknown probe kernel %q (want auto, hash, or scan)", name)
	}
}

// BlockBits is the lane width of the block-scan kernel: how many window
// words one level-1 reduce, and one hit bitmask, cover.
const BlockBits = 64

// Sweep is one probe's predicate cmp(lhs, field(word)) resolved into lane
// arithmetic, so no comparator dispatch is left inside the scan. With x
// the zero-extended 32-bit field of a packed bus word (key in the high
// half, value in the low — Tuple.Word layout), every comparator is the
// sign of (x ^ flip) + bias in 64-bit two's complement: bit 63 of the sum
// is that lane's compare line. The zero Sweep never hits. On amd64 with
// AVX2 Next evaluates the same lanes four per instruction
// (sweep_amd64.s); the Go lanes below are the portable path and the
// specification it is tested against.
type Sweep struct {
	flip, bias uint64
	shift      uint8 // field's bit offset in the word: 32 for the key, 0 for the value
}

// NewSweep resolves the predicate: the one comparator switch per probe.
func NewSweep(field Field, cmp Comparator, lhs uint32) Sweep {
	l, ones := uint64(lhs), ^uint64(0)
	var s Sweep
	if field == FieldKey {
		s.shift = 32
	}
	switch cmp {
	case CmpEQ: // (x^lhs) - 1 < 0
		s.flip, s.bias = l, ones
	case CmpNE: // -(x^lhs) < 0
		s.flip, s.bias = ^l, 1
	case CmpLT: // lhs - x < 0
		s.flip, s.bias = ones, l+1
	case CmpLE: // lhs - x - 1 < 0
		s.flip, s.bias = ones, l
	case CmpGT: // x - lhs < 0
		s.flip, s.bias = 0, -l
	case CmpGE: // x - lhs - 1 < 0
		s.flip, s.bias = 0, ^l
	}
	return s
}

// useAVX2 selects the lanes Next runs: the AVX2 sweep where the CPU has
// it, the portable Go lanes below otherwise. Only tests flip it, to hold
// both paths to the same answers on one machine.
var useAVX2 = hasAVX2

// ScanLanes names the lanes the block-scan kernel runs on this machine:
// "avx2" (four 64-bit lanes per instruction) or "portable" (Go).
func ScanLanes() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// Next sweeps words from index from in 64-word blocks and returns the
// base index and hit bitmask (bit i for words[base+i]) of the first block
// in which any lane hits, or a zero mask once the run is exhausted. The
// whole run is swept in one call; a caller walks it with
//
//	for base, m := s.Next(words, 0); m != 0; base, m = s.Next(words, base+BlockBits)
func (s Sweep) Next(words []uint64, from int) (base int, mask uint64) {
	if useAVX2 {
		return nextAVX2(s, words, from)
	}
	for ; from < len(words); from += BlockBits {
		block := words[from:min(from+BlockBits, len(words))]
		if s.anyHit(block) {
			return from, s.mask(block)
		}
	}
	return len(words), 0
}

// tailLane is the compare line of one word of a run's short last block
// (at most one per window segment), where the field offset is not worth
// specializing.
func (s Sweep) tailLane(w uint64) uint64 {
	return (w>>s.shift&(1<<32-1) ^ s.flip) + s.bias
}

// anyHit is level 1: the OR-reduce of every lane's compare line over one
// block of at most 64 words. On a full block it is branch-free, shifts
// only by constants, and two accumulators keep the OR chain off the
// critical path — the software stand-in for the OR-tree over a Processing
// Core's parallel comparators.
func (s Sweep) anyHit(block []uint64) bool {
	var a0, a1 uint64
	if len(block) < BlockBits {
		for _, w := range block {
			a0 |= s.tailLane(w)
		}
		return int64(a0) < 0
	}
	flip, bias := s.flip, s.bias
	b := (*[BlockBits]uint64)(block)
	if s.shift != 0 {
		for i := 0; i < BlockBits; i += 8 {
			a0 |= (b[i]>>32 ^ flip) + bias
			a1 |= (b[i+1]>>32 ^ flip) + bias
			a0 |= (b[i+2]>>32 ^ flip) + bias
			a1 |= (b[i+3]>>32 ^ flip) + bias
			a0 |= (b[i+4]>>32 ^ flip) + bias
			a1 |= (b[i+5]>>32 ^ flip) + bias
			a0 |= (b[i+6]>>32 ^ flip) + bias
			a1 |= (b[i+7]>>32 ^ flip) + bias
		}
	} else {
		for i := 0; i < BlockBits; i += 8 {
			a0 |= (uint64(uint32(b[i])) ^ flip) + bias
			a1 |= (uint64(uint32(b[i+1])) ^ flip) + bias
			a0 |= (uint64(uint32(b[i+2])) ^ flip) + bias
			a1 |= (uint64(uint32(b[i+3])) ^ flip) + bias
			a0 |= (uint64(uint32(b[i+4])) ^ flip) + bias
			a1 |= (uint64(uint32(b[i+5])) ^ flip) + bias
			a0 |= (uint64(uint32(b[i+6])) ^ flip) + bias
			a1 |= (uint64(uint32(b[i+7])) ^ flip) + bias
		}
	}
	return int64(a0|a1) < 0
}

// mask is level 2, run only on blocks level 1 flagged: each lane's compare
// line is shifted in from the top, so lane i of a full block ends at bit
// i; a short block is aligned down once at the end.
func (s Sweep) mask(block []uint64) uint64 {
	const top = 1 << 63
	var m uint64
	if len(block) < BlockBits {
		for _, w := range block {
			m = m>>1 | s.tailLane(w)&top
		}
		return m >> uint(BlockBits-len(block))
	}
	flip, bias := s.flip, s.bias
	b := (*[BlockBits]uint64)(block)
	if s.shift != 0 {
		for i := 0; i < BlockBits; i += 4 {
			t0 := ((b[i]>>32 ^ flip) + bias) & top
			t1 := ((b[i+1]>>32 ^ flip) + bias) & top
			t2 := ((b[i+2]>>32 ^ flip) + bias) & top
			t3 := ((b[i+3]>>32 ^ flip) + bias) & top
			m = m>>4 | t0>>3 | t1>>2 | t2>>1 | t3
		}
	} else {
		for i := 0; i < BlockBits; i += 4 {
			t0 := ((uint64(uint32(b[i])) ^ flip) + bias) & top
			t1 := ((uint64(uint32(b[i+1])) ^ flip) + bias) & top
			t2 := ((uint64(uint32(b[i+2])) ^ flip) + bias) & top
			t3 := ((uint64(uint32(b[i+3])) ^ flip) + bias) & top
			m = m>>4 | t0>>3 | t1>>2 | t2>>1 | t3
		}
	}
	return m
}

// BlockMask evaluates cmp(lhs, field(word)) across up to 64 packed bus
// words and returns the bitmask of hits, bit i for words[i]: one block of
// the two-level sweep, on the same lane code Next runs. Words beyond the
// first 64 are ignored.
func BlockMask(words []uint64, field Field, cmp Comparator, lhs uint32) uint64 {
	_, m := NewSweep(field, cmp, lhs).Next(words[:min(BlockBits, len(words))], 0)
	return m
}
