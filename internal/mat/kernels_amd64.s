//go:build amd64 && !noasm

#include "textflag.h"

// func cpuHasAVX2F64() bool
//
// AVX2 usability = CPUID.1:ECX.OSXSAVE[27] and .AVX[28], XGETBV(0)
// reporting XMM+YMM state enabled (bits 1 and 2), and CPUID.7.0:EBX.
// AVX2[5]. Same check as internal/index's int8 kernel.
TEXT ·cpuHasAVX2F64(SB), NOSPLIT, $0-1
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

// func dotAVX2(a, b *float64, n int) float64
//
// Float64 dot product over n elements (n a multiple of 4), following the
// canonical summation order fixed by DotGeneric: four 4-lane accumulators
// over 16-element blocks, folded pairwise (Y0+=Y1, Y2+=Y3), an optional
// 8-element block into the folded pair, a final fold (Y0+=Y2), an
// optional 4-element block into Y0, then the (l0+l1)+(l2+l3) horizontal
// reduction. VMULPD+VADDPD only — a fused multiply-add would round once
// where the generic kernel rounds twice and break bit-identity.
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0 // lanes s0..s3
	VXORPD Y1, Y1, Y1 // lanes s4..s7
	VXORPD Y2, Y2, Y2 // lanes s8..s11
	VXORPD Y3, Y3, Y3 // lanes s12..s15

loop16:
	CMPQ CX, $16
	JLT  fold8
	VMOVUPD (SI), Y4
	VMOVUPD (DI), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 32(SI), Y4
	VMOVUPD 32(DI), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y1, Y1
	VMOVUPD 64(SI), Y4
	VMOVUPD 64(DI), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD 96(SI), Y4
	VMOVUPD 96(DI), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y3, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  loop16

fold8:
	VADDPD Y1, Y0, Y0 // u lanes = s_j + s_{j+4}
	VADDPD Y3, Y2, Y2 // v lanes = s_{j+8} + s_{j+12}
	CMPQ CX, $8
	JLT  fold4
	VMOVUPD (SI), Y4
	VMOVUPD (DI), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 32(SI), Y4
	VMOVUPD 32(DI), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y2, Y2
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX

fold4:
	VADDPD Y2, Y0, Y0 // l lanes = u_j + v_j
	CMPQ CX, $4
	JLT  hsum
	VMOVUPD (SI), Y4
	VMOVUPD (DI), Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y4, Y0, Y0

hsum:
	// (l0+l1) + (l2+l3): VHADDPD forms the two pair sums, the high pair
	// is extracted and added scalar. Float addition is bitwise
	// commutative, so the lane pairing matches the generic kernel.
	VHADDPD Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func axpyAVX2(a float64, x, y *float64, n int)
//
// y[i] += a*x[i] for i in [0,n), n a multiple of 4. Elementwise, so no
// accumulation order to preserve — only one rounding per product
// (VMULPD+VADDPD, no FMA) to match the generic kernel.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y2
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX

aloop8:
	CMPQ CX, $8
	JLT  aloop4
	VMOVUPD (SI), Y1
	VMULPD  Y2, Y1, Y1
	VMOVUPD (DI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	VMOVUPD 32(SI), Y1
	VMULPD  Y2, Y1, Y1
	VMOVUPD 32(DI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  aloop8

aloop4:
	CMPQ CX, $4
	JLT  adone
	VMOVUPD (SI), Y1
	VMULPD  Y2, Y1, Y1
	VMOVUPD (DI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX

adone:
	VZEROUPPER
	RET

// func gemmPanel4AVX2(dst, alpha, b *float64, p, n int)
//
// Four-row GEMM panel microkernel over the first p columns (p a multiple
// of 4): dst[j] += alpha[0]*b0[j] + alpha[1]*b1[j] + alpha[2]*b2[j] +
// alpha[3]*b3[j], where bk is row k of the n-stride panel b. The four
// adds land in panel order per element, one rounding per product, so the
// result is bit-identical to GemmPanel4Generic.
TEXT ·gemmPanel4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), SI
	MOVQ alpha+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ p+24(FP), CX
	MOVQ n+32(FP), DX
	VBROADCASTSD (AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7
	LEAQ (BX)(DX*8), R9   // row 1
	LEAQ (R9)(DX*8), R10  // row 2
	LEAQ (R10)(DX*8), R11 // row 3

gloop4:
	CMPQ CX, $4
	JLT  gdone
	VMOVUPD (SI), Y0
	VMOVUPD (BX), Y1
	VMULPD  Y4, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R9), Y1
	VMULPD  Y5, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R10), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R11), Y1
	VMULPD  Y7, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  gloop4

gdone:
	VZEROUPPER
	RET
