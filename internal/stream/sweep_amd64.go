package stream

// hasAVX2 records, once at package init, whether this CPU and OS run
// 256-bit integer lanes; Next runs the AVX2 sweep where they do.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID leaf 1 OSXSAVE+AVX, XCR0's XMM+YMM state, and
// CPUID leaf 7 EBX bit 5 (AVX2).
func cpuHasAVX2() bool

// nextAVX2 is Next on 4-lane ymm registers: the same (x ^ flip) + bias
// lanes, bit 63 per lane, over words[from:] in 64-word blocks. from must
// not be negative; from ≥ len(words) returns (len(words), 0).
//
//go:noescape
func nextAVX2(s Sweep, words []uint64, from int) (base int, mask uint64)
