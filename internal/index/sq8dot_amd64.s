//go:build amd64 && !noasm

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 usability = CPUID.1:ECX.OSXSAVE[27] and .AVX[28], XGETBV(0)
// reporting XMM+YMM state enabled (bits 1 and 2), and CPUID.7.0:EBX.
// AVX2[5].
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<27), CX // OSXSAVE
	JZ   no
	TESTL $(1<<28), CX // AVX
	JZ   no
	XORL CX, CX
	XGETBV             // EDX:EAX = XCR0
	ANDL $6, AX
	CMPL AX, $6        // XMM and YMM state saved by the OS
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX  // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func dotI8SIMD(a, b *int8, n int) int32
//
// Int8 inner product: 16 elements per step are sign-extended to int16
// lanes (VPMOVSXBW) and pair-multiplied-and-summed into int32 lanes
// (VPMADDWD), accumulating in Y0; the main loop takes two such steps.
// Remaining elements run through a scalar loop. Integer addition is
// exact, so the result is bit-identical to the portable kernel for any
// lane/accumulation order. Products are bounded by 2^14, so an int32
// lane holds at least 2^17 accumulated terms — far beyond any embedding
// width here.
TEXT ·dotI8SIMD(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	XORL R8, R8           // running sum (int32)
	CMPQ CX, $16
	JLT  tail
	VPXOR Y0, Y0, Y0

blk32:
	CMPQ CX, $32
	JLT  blk16
	VPMOVSXBW (SI), Y1
	VPMOVSXBW (DI), Y2
	VPMADDWD  Y2, Y1, Y3
	VPADDD    Y3, Y0, Y0
	VPMOVSXBW 16(SI), Y1
	VPMOVSXBW 16(DI), Y2
	VPMADDWD  Y2, Y1, Y3
	VPADDD    Y3, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  blk32

blk16:
	CMPQ CX, $16
	JLT  hsum
	VPMOVSXBW (SI), Y1
	VPMOVSXBW (DI), Y2
	VPMADDWD  Y2, Y1, Y3
	VPADDD    Y3, Y0, Y0
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX

hsum:
	// Reduce the 8 int32 lanes of Y0 into R8.
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VPSHUFD $0x4E, X0, X1 // swap 64-bit halves
	VPADDD  X1, X0, X0
	VPSHUFD $0xB1, X0, X1 // swap 32-bit pairs
	VPADDD  X1, X0, X0
	VZEROUPPER
	MOVQ X0, AX
	ADDL AX, R8

tail:
	TESTQ CX, CX
	JZ    done

tloop:
	MOVBLSX (SI), R9
	MOVBLSX (DI), R10
	IMULL   R10, R9
	ADDL    R9, R8
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNZ     tloop

done:
	MOVL R8, ret+24(FP)
	RET

// func dotI8x4SIMD(a0, a1, a2, a3, b *int8, n int, out *[4]int32)
//
// Four int8 inner products against one row: out[q] = aq · b over n
// elements (n a positive multiple of 16). Each 16-element step loads the
// row once (VPMOVSXBW into Y4) and pair-multiplies it against the four
// queries' sign-extended codes into one int32 accumulator each (Y0-Y3).
// The three VPHADDDs then fold the four accumulators' lanes into one
// register of per-query partials per 128-bit half, and the halves add.
// Integer addition is exact, so out[q] is bit-identical to dotI8(aq, b).
TEXT ·dotI8x4SIMD(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ a2+16(FP), R8
	MOVQ a3+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

x4loop:
	VPMOVSXBW (BX)(AX*1), Y4
	VPMOVSXBW (SI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (DI)(AX*1), Y6
	VPMADDWD  Y6, Y4, Y6
	VPADDD    Y6, Y1, Y1
	VPMOVSXBW (R8)(AX*1), Y7
	VPMADDWD  Y7, Y4, Y7
	VPADDD    Y7, Y2, Y2
	VPMOVSXBW (R9)(AX*1), Y8
	VPMADDWD  Y8, Y4, Y8
	VPADDD    Y8, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  x4loop

	VPHADDD Y1, Y0, Y0 // per half: pair sums of Y0, then of Y1
	VPHADDD Y3, Y2, Y2 // per half: pair sums of Y2, then of Y3
	VPHADDD Y2, Y0, Y0 // per half: one partial per query, in order
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VMOVDQU X0, (DX)
	VZEROUPPER
	RET
