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

// tailMask holds 16 zero int16 lanes, then 16 of all ones. The 16 lanes
// from lane t on keep the last t of 16 and zero the rest.
DATA tailMask<>+0(SB)/8, $0
DATA tailMask<>+8(SB)/8, $0
DATA tailMask<>+16(SB)/8, $0
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func dotI8RowsSIMD(q, rows *int8, dim, n int, out *int32)
//
// n int8 inner products of one query with consecutive rows: out[r] =
// q · rows[r·dim:(r+1)·dim] (n >= 1, dim >= 16). Each 16-element step
// sign-extends the codes to int16 lanes (VPMOVSXBW) and pair-multiplies
// and sums them into int32 lanes (VPMADDWD). Rows go four at a time: a
// step loads the query once (Y4) against the four rows, into one
// accumulator each (Y0-Y3), and three VPHADDDs fold the four
// accumulators' lanes into one register of per-row partials per 128-bit
// half; the halves add and one 16-byte store writes the four sums. The
// last n mod 4 rows go one at a time, folded by shuffles. The last dim mod
// 16 elements take one more step over each row's last 16 codes, against
// the query's last 16 with the lanes already counted zeroed (Y6, masked
// once for all rows). Integer addition is exact, so every sum is
// bit-identical to dotI8Generic's, and products are bounded by 2^14, so an
// int32 lane holds at least 2^17 of them.
TEXT ·dotI8RowsSIMD(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ dim+16(FP), CX
	MOVQ n+24(FP), BX
	MOVQ out+32(FP), DX
	MOVQ CX, R8
	ANDQ $-16, R8         // elements in whole steps
	MOVQ CX, R9
	ANDQ $15, R9          // tail elements
	LEAQ tailMask<>(SB), R10
	VMOVDQU (R10)(R9*2), Y7
	VPMOVSXBW -16(SI)(CX*1), Y6
	VPAND     Y7, Y6, Y6  // the query's tail, other lanes zero
	CMPQ BX, $4
	JLT  one

group:
	LEAQ (DI)(CX*1), R11  // rows 1, 2 and 3 of the group
	LEAQ (R11)(CX*1), R12
	LEAQ (R12)(CX*1), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

step:
	VPMOVSXBW (SI)(AX*1), Y4
	VPMOVSXBW (DI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (R11)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVSXBW (R12)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y2, Y2
	VPMOVSXBW (R13)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, R8
	JLT  step

	TESTQ R9, R9
	JZ    fold
	VPMOVSXBW -16(DI)(CX*1), Y5
	VPMADDWD  Y5, Y6, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW -16(R11)(CX*1), Y5
	VPMADDWD  Y5, Y6, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVSXBW -16(R12)(CX*1), Y5
	VPMADDWD  Y5, Y6, Y5
	VPADDD    Y5, Y2, Y2
	VPMOVSXBW -16(R13)(CX*1), Y5
	VPMADDWD  Y5, Y6, Y5
	VPADDD    Y5, Y3, Y3

fold:
	VPHADDD Y1, Y0, Y0 // per half: pair sums of Y0, then of Y1
	VPHADDD Y3, Y2, Y2 // per half: pair sums of Y2, then of Y3
	VPHADDD Y2, Y0, Y0 // per half: one partial per row, in order
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VMOVDQU X0, (DX)
	ADDQ $16, DX
	LEAQ (R13)(CX*1), DI  // the next group's first row
	SUBQ $4, BX
	CMPQ BX, $4
	JGE  group

one:
	TESTQ BX, BX
	JZ    done
	VPXOR Y0, Y0, Y0
	XORQ  AX, AX

onestep:
	VPMOVSXBW (SI)(AX*1), Y4
	VPMOVSXBW (DI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	ADDQ $16, AX
	CMPQ AX, R8
	JLT  onestep

	TESTQ R9, R9
	JZ    onefold
	VPMOVSXBW -16(DI)(CX*1), Y5
	VPMADDWD  Y5, Y6, Y5
	VPADDD    Y5, Y0, Y0

onefold:
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VPSHUFD $0x4E, X0, X1 // swap 64-bit halves
	VPADDD  X1, X0, X0
	VPSHUFD $0xB1, X0, X1 // swap 32-bit pairs
	VPADDD  X1, X0, X0
	VMOVD   X0, (DX)
	ADDQ $4, DX
	ADDQ CX, DI
	DECQ BX
	JMP  one

done:
	VZEROUPPER
	RET
