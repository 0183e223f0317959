#include "textflag.h"

// The block sweep on four 64-bit lanes per instruction. Every lane is the
// Go code's (x ^ flip) + bias on the zero-extended 32-bit field x, and
// bit 63 of the sum is the compare line; VMOVMSKPD gathers four lines.
//
// Registers in nextAVX2:
//	R9 current word pointer, DI its word index, DX len(words), R10 words left
//	Y8 low-32 mask, Y9 flip, Y10 bias, X11 field shift (32 or 0)
//	Y0, Y1 level-1 accumulators, Y2, Y3 lane temporaries, BX hit mask

// KEYQ and VALQ are one level-1 quad: acc |= (field ^ flip) + bias for the
// four words at off(R9). The key quad shifts, the value quad masks.
#define KEYQ(off, t, acc) \
	VMOVDQU off(R9), t; \
	VPSRLQ  $32, t, t; \
	VPXOR   Y9, t, t; \
	VPADDQ  Y10, t, t; \
	VPOR    t, acc, acc

#define VALQ(off, t, acc) \
	VPAND  off(R9), Y8, t; \
	VPXOR  Y9, t, t; \
	VPADDQ Y10, t, t; \
	VPOR   t, acc, acc

// BLOCK is level 1 over the 64-word block at R9: sixteen quads into two
// accumulators (keeping the OR chain off the critical path), OR-reduced,
// leaving the block's "any lane hit" in AX as a 4-bit sign mask.
#define BLOCK(Q) \
	VPXOR Y0, Y0, Y0; VPXOR Y1, Y1, Y1; \
	Q(0, Y2, Y0); Q(32, Y3, Y1); Q(64, Y2, Y0); Q(96, Y3, Y1); \
	Q(128, Y2, Y0); Q(160, Y3, Y1); Q(192, Y2, Y0); Q(224, Y3, Y1); \
	Q(256, Y2, Y0); Q(288, Y3, Y1); Q(320, Y2, Y0); Q(352, Y3, Y1); \
	Q(384, Y2, Y0); Q(416, Y3, Y1); Q(448, Y2, Y0); Q(480, Y3, Y1); \
	VPOR      Y0, Y1, Y0; \
	VMOVMSKPD Y0, AX

// LANE is the field-generic lane of level 2 and the tail, on a ymm quad
// or a single xmm word: t = ((t >> shift) & low32 ^ flip) + bias.
#define LANE(t, low, flip, bias) \
	VPSRLQ X11, t, t; \
	VPAND  low, t, t; \
	VPXOR  flip, t, t; \
	VPADDQ bias, t, t

// func nextAVX2(s Sweep, words []uint64, from int) (base int, mask uint64)
TEXT ·nextAVX2(SB), NOSPLIT, $0-72
	MOVQ words_base+24(FP), SI
	MOVQ words_len+32(FP), DX
	MOVQ from+48(FP), DI
	CMPQ DI, DX
	JAE  miss // from ≥ len(words): the run is exhausted
	MOVQ DX, R10
	SUBQ DI, R10
	LEAQ (SI)(DI*8), R9

	VPBROADCASTQ s_flip+0(FP), Y9
	VPBROADCASTQ s_bias+8(FP), Y10
	MOVBQZX      s_shift+16(FP), AX
	VMOVQ        AX, X11
	VPCMPEQQ     Y8, Y8, Y8
	VPSRLQ       $32, Y8, Y8
	TESTQ        AX, AX
	JZ           val

key:
	CMPQ R10, $64
	JLT  tail
	BLOCK(KEYQ)
	TESTL AX, AX
	JNZ   full
	ADDQ  $512, R9
	ADDQ  $64, DI
	SUBQ  $64, R10
	JMP   key

val:
	CMPQ R10, $64
	JLT  tail
	BLOCK(VALQ)
	TESTL AX, AX
	JNZ   full
	ADDQ  $512, R9
	ADDQ  $64, DI
	SUBQ  $64, R10
	JMP   val

full:
	MOVQ $64, R10

	// Level 2 over the R10 ≤ 64 words at R9 (block base DI): one
	// VMOVMSKPD per quad shifted into place, then the run's last ≤ 3
	// words one lane at a time.
tail:
	XORQ BX, BX
	XORQ CX, CX

quad:
	CMPQ      R10, $4
	JLT       word
	VMOVDQU   (R9), Y2
	LANE(Y2, Y8, Y9, Y10)
	VMOVMSKPD Y2, AX
	SHLQ      CL, AX
	ORQ       AX, BX
	ADDQ      $32, R9
	ADDQ      $4, CX
	SUBQ      $4, R10
	JMP       quad

word:
	TESTQ     R10, R10
	JZ        done
	VMOVQ     (R9), X2
	LANE(X2, X8, X9, X10)
	VMOVMSKPD X2, AX
	ANDL      $1, AX
	SHLQ      CL, AX
	ORQ       AX, BX
	ADDQ      $8, R9
	INCQ      CX
	DECQ      R10
	JMP       word

done:
	TESTQ BX, BX
	JZ    miss
	MOVQ  DI, base+56(FP)
	MOVQ  BX, mask+64(FP)
	VZEROUPPER
	RET

miss:
	MOVQ DX, base+56(FP)
	MOVQ $0, mask+64(FP)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no // no leaf 7

	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)

no:
	RET
