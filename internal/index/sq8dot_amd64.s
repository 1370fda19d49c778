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

// absMask clears a float64's sign bit.
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

// func dotI8RowsAVX2(q *int16, rows *int8, dim, n int, scale, base *float32, f *factors, out *float64, bound bool)
//
// What a scan tests of each of n consecutive rows of int8 codes (n >= 1,
// dim >= 16): the row's dot d with the 16-bit query q turned into f.bound
// (bound set) or f.approx with the row's (scale, base). Each 16-element
// step loads 16 query values (VMOVDQU), sign-extends 16 codes to int16
// lanes (VPMOVSXBW), and pair-multiplies and sums them into int32 lanes
// (VPMADDWD). Rows go four at a time: a step loads the query once (Y4)
// against the four rows, into one accumulator each (Y0-Y3), and three
// VPHADDDs and one VPADDD fold them into the four rows' sums. The last dim
// mod 16 elements take one more step over each row's last 16 codes,
// against the query's last 16 with the lanes already counted zeroed (Y6,
// masked once for all rows). A last group of n mod 4 rows re-reads the
// group's first row in place of the missing ones, loads only its own
// parameters and stores only its own results. Integer addition is exact
// and every partial sum is under 2^31 (queryLevels), so each d is
// dotI8's. The four sums then become four scores per instruction
// (VCVTDQ2PD, VCVTPS2PD: exact), in factors.score's operation order and
// roundings, with no FMA:
//
//	a  = b·sum + (s·step)·d
//	ub = ((a + s·ks) + |b|·kb) + k0
TEXT ·dotI8RowsAVX2(SB), NOSPLIT, $0-65
	MOVQ q+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ dim+16(FP), CX
	MOVQ n+24(FP), BX
	MOVQ scale+32(FP), R9
	MOVQ base+40(FP), R10
	MOVQ f+48(FP), AX
	MOVQ out+56(FP), DX
	VBROADCASTSD 0(AX), Y8   // sum
	VBROADCASTSD 8(AX), Y9   // step
	VBROADCASTSD 16(AX), Y10 // ks
	VBROADCASTSD 24(AX), Y11 // kb
	VBROADCASTSD 32(AX), Y12 // k0
	VBROADCASTSD absMask<>(SB), Y13
	MOVQ CX, R8
	ANDQ $-16, R8            // elements in whole steps
	MOVQ CX, AX
	ANDQ $15, AX             // tail elements
	LEAQ tailMask<>(SB), R11
	VMOVDQU (R11)(AX*2), Y7
	VMOVDQU -32(SI)(CX*2), Y6
	VPAND   Y7, Y6, Y6       // the query's tail, other lanes zero

group:
	LEAQ (DI)(CX*1), R11     // rows 1, 2 and 3 of the group
	LEAQ (R11)(CX*1), R12
	LEAQ (R12)(CX*1), R13
	CMPQ BX, $4
	JGE  rows4
	MOVQ    DI, R13          // fewer than four left: re-read row 0
	CMPQ    BX, $3
	CMOVQLT DI, R12
	CMPQ    BX, $2
	CMOVQLT DI, R11

rows4:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

step:
	VMOVDQU   (SI)(AX*2), Y4
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

	CMPQ R8, CX
	JEQ  fold
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
	VPADDD    X1, X0, X0
	VCVTDQ2PD X0, Y0   // d
	CMPQ BX, $4
	JLT  params3
	VCVTPS2PD (R9), Y1  // s
	VCVTPS2PD (R10), Y2 // b
	JMP  scores

params3:
	VMOVSS (R9), X1
	VMOVSS (R10), X2
	CMPQ   BX, $2
	JLT    widen
	VINSERTPS $0x10, 4(R9), X1, X1
	VINSERTPS $0x10, 4(R10), X2, X2
	CMPQ   BX, $3
	JLT    widen
	VINSERTPS $0x20, 8(R9), X1, X1
	VINSERTPS $0x20, 8(R10), X2, X2

widen:
	VCVTPS2PD X1, Y1
	VCVTPS2PD X2, Y2

scores:
	VMULPD Y8, Y2, Y3  // b·sum
	VMULPD Y9, Y1, Y4  // s·step
	VMULPD Y0, Y4, Y4  // (s·step)·d
	VADDPD Y4, Y3, Y0  // a
	CMPB   bound+64(FP), $0
	JEQ    store
	VMULPD Y10, Y1, Y3 // s·ks
	VADDPD Y3, Y0, Y0
	VANDPD Y13, Y2, Y3 // |b|
	VMULPD Y11, Y3, Y3 // |b|·kb
	VADDPD Y3, Y0, Y0
	VADDPD Y12, Y0, Y0 // + k0

store:
	CMPQ BX, $4
	JLT  store3
	VMOVUPD Y0, (DX)
	ADDQ $32, DX
	ADDQ $16, R9
	ADDQ $16, R10
	LEAQ (R13)(CX*1), DI // the next group's first row
	SUBQ $4, BX
	JNZ  group
	JMP  done

store3:
	VMOVSD X0, (DX)
	CMPQ   BX, $2
	JLT    done
	VMOVHPD X0, 8(DX)
	CMPQ   BX, $3
	JLT    done
	VEXTRACTF128 $1, Y0, X0
	VMOVSD X0, 16(DX)

done:
	VZEROUPPER
	RET
