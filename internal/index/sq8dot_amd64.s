//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

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

// absMask clears a float64's sign bit, four lanes wide.
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
DATA absMask<>+8(SB)/8, $0x7fffffffffffffff
DATA absMask<>+16(SB)/8, $0x7fffffffffffffff
DATA absMask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $32

// Query x's codes (the slice's data pointer; a slice header is 24
// bytes) and its factor f, in the lanes at DX.
#define QCODES(x) (lanes_q+(x)*24)(DX)
#define FACTOR(x, f) (lanes_f+(x)*factors__size+(f))(DX)

// MADD adds to each of acc's eight int32 lanes (one a row) the products
// of the row's two codes in w with the query pair at off(qreg)(AX*1),
// through t.
#define MADD(off, qreg, w, t, acc) \
	VPBROADCASTD off(qreg)(AX*1), t; \
	VPMADDWD     t, w, t; \
	VPADDD       t, acc, acc

// APPROX turns query x's eight row dots (in xacc/yacc) into their
// approximate scores a = b·sum + (s·step)·d, rows 0-3 in Y4 and 4-7 in
// Y5, from the group's s in Y8/Y9 and b in Y10/Y11.
#define APPROX(x, xacc, yacc) \
	VCVTDQ2PD    xacc, Y6; \
	VEXTRACTI128 $1, yacc, X7; \
	VCVTDQ2PD    X7, Y7; \
	VBROADCASTSD FACTOR(x, factors_sum), Y14; \
	VMULPD       Y14, Y10, Y4; \
	VMULPD       Y14, Y11, Y5; \
	VBROADCASTSD FACTOR(x, factors_step), Y14; \
	VMULPD       Y14, Y8, Y15; \
	VMULPD       Y6, Y15, Y15; \
	VADDPD       Y15, Y4, Y4; \
	VMULPD       Y14, Y9, Y15; \
	VMULPD       Y7, Y15, Y15; \
	VADDPD       Y15, Y5, Y5

// BOUND widens query x's approximate scores in Y4/Y5 to their bounds
// ((a + s·ks) + |b|·kb) + k0, with |b| in Y12/Y13.
#define BOUND(x) \
	VBROADCASTSD FACTOR(x, factors_ks), Y14; \
	VMULPD       Y14, Y8, Y15; \
	VADDPD       Y15, Y4, Y4; \
	VMULPD       Y14, Y9, Y15; \
	VADDPD       Y15, Y5, Y5; \
	VBROADCASTSD FACTOR(x, factors_kb), Y14; \
	VMULPD       Y14, Y12, Y15; \
	VADDPD       Y15, Y4, Y4; \
	VMULPD       Y14, Y13, Y15; \
	VADDPD       Y15, Y5, Y5; \
	VBROADCASTSD FACTOR(x, factors_k0), Y14; \
	VADDPD       Y14, Y4, Y4; \
	VADDPD       Y14, Y5, Y5

// STORE writes query x's eight scores in Y4/Y5 to the group's place in
// its scores (R13) and their byte of its mask, bit r set when
// !(score < floor): VCMPPD predicate 0x15, not-less-than, true when
// unordered.
#define STORE(x) \
	VMOVUPD      Y4, (lanes_score+(x)*const_runRows*8)(R13); \
	VMOVUPD      Y5, (lanes_score+(x)*const_runRows*8+32)(R13); \
	VBROADCASTSD (lanes_floor+(x)*8)(DX), Y14; \
	VCMPPD       $0x15, Y14, Y4, Y4; \
	VCMPPD       $0x15, Y14, Y5, Y5; \
	VMOVMSKPD    Y4, AX; \
	VMOVMSKPD    Y5, SI; \
	SHLQ         $4, SI; \
	ORQ          SI, AX; \
	MOVB         AX, (lanes_mask+(x)*8)(DX)(BX*1)

// func dotI8RowsAVX2(l *lanes, nq, pairs int, codes *int8, scale, base *float32, ng int, bound bool)
//
// dotI8Rows over ng >= 1 groups of 8 rows whose codes (pairs >= 1
// chunks a group) start at codes, and their 8·ng (scale, base) pairs,
// against the first nq (1 to 4) queries of l. Each chunk holds two codes
// of each of the group's rows; it is sign-extended to 16 int16 lanes once
// (VPMOVSXBW) and, for each query, multiplied by that query's two levels
// for those dimensions, broadcast to every row (VPBROADCASTD), pair-summed
// into int32 lanes (VPMADDWD) and added to the query's accumulator
// (VPADDD, one of Y0-Y3): lane r ends as row r's dot, with no horizontal
// fold. Integer addition is exact and every partial sum is under 2^31
// (queryLevels), so each dot is exact. The dots then become scores eight
// rows at a time (VCVTDQ2PD, VCVTPS2PD: exact), in factors.score's
// operation order and roundings, with no FMA:
//
//	a  = b·sum + (s·step)·d
//	ub = ((a + s·ks) + |b|·kb) + k0
//
// and each score is compared with its query's floor for the mask. Byte g
// of mask x is group g's; the bytes of groups past ng are zeroed.
TEXT ·dotI8RowsAVX2(SB), NOSPLIT, $0-57
	MOVQ l+0(FP), DX
	MOVQ pairs+16(FP), R8
	SHLQ $2, R8               // a group's query bytes: 4 a pair
	MOVQ codes+24(FP), DI
	MOVQ QCODES(0), R9
	MOVQ QCODES(1), R10
	MOVQ QCODES(2), R11
	MOVQ QCODES(3), R12
	MOVQ $0, (lanes_mask+0)(DX)
	MOVQ $0, (lanes_mask+8)(DX)
	MOVQ $0, (lanes_mask+16)(DX)
	MOVQ $0, (lanes_mask+24)(DX)
	XORQ BX, BX               // group
	MOVQ DX, R13              // the group's scores, less lanes_score

group:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  DI, SI              // the chunk
	XORQ  AX, AX              // its query pair's offset: 4 a chunk
	MOVQ  nq+8(FP), CX
	CMPQ  CX, $2
	JLT   one
	LEAQ  -4(R8), CX          // a two-chunk step starts below it
	JEQ   two
	CMPQ  nq+8(FP), $3
	JEQ   three

	// Four queries, two chunks a step, then the odd chunk.
four:
	CMPQ AX, CX
	JGE  four1

four2:
	VPMOVSXBW (SI), Y4
	VPMOVSXBW 16(SI), Y15
	MADD(0, R9, Y4, Y5, Y0)
	MADD(0, R10, Y4, Y6, Y1)
	MADD(0, R11, Y4, Y7, Y2)
	MADD(0, R12, Y4, Y8, Y3)
	MADD(4, R9, Y15, Y5, Y0)
	MADD(4, R10, Y15, Y6, Y1)
	MADD(4, R11, Y15, Y7, Y2)
	MADD(4, R12, Y15, Y8, Y3)
	ADDQ $32, SI
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  four2

four1:
	CMPQ AX, R8
	JEQ  scores
	VPMOVSXBW (SI), Y4
	MADD(0, R9, Y4, Y5, Y0)
	MADD(0, R10, Y4, Y6, Y1)
	MADD(0, R11, Y4, Y7, Y2)
	MADD(0, R12, Y4, Y8, Y3)
	JMP  scores

three:
	CMPQ AX, CX
	JGE  three1

three2:
	VPMOVSXBW (SI), Y4
	VPMOVSXBW 16(SI), Y15
	MADD(0, R9, Y4, Y5, Y0)
	MADD(0, R10, Y4, Y6, Y1)
	MADD(0, R11, Y4, Y7, Y2)
	MADD(4, R9, Y15, Y5, Y0)
	MADD(4, R10, Y15, Y6, Y1)
	MADD(4, R11, Y15, Y7, Y2)
	ADDQ $32, SI
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  three2

three1:
	CMPQ AX, R8
	JEQ  scores
	VPMOVSXBW (SI), Y4
	MADD(0, R9, Y4, Y5, Y0)
	MADD(0, R10, Y4, Y6, Y1)
	MADD(0, R11, Y4, Y7, Y2)
	JMP  scores

two:
	CMPQ AX, CX
	JGE  two1

two2:
	VPMOVSXBW (SI), Y4
	VPMOVSXBW 16(SI), Y15
	MADD(0, R9, Y4, Y5, Y0)
	MADD(0, R10, Y4, Y6, Y1)
	MADD(4, R9, Y15, Y5, Y0)
	MADD(4, R10, Y15, Y6, Y1)
	ADDQ $32, SI
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  two2

two1:
	CMPQ AX, R8
	JEQ  scores
	VPMOVSXBW (SI), Y4
	MADD(0, R9, Y4, Y5, Y0)
	MADD(0, R10, Y4, Y6, Y1)
	JMP  scores

	// One query, four chunks a step into two accumulators, then the
	// last chunks one at a time.
one:
	LEAQ -12(R8), CX          // a four-chunk step starts below it
	CMPQ AX, CX
	JGE  one1

one4:
	VPMOVSXBW (SI), Y4
	VPMOVSXBW 16(SI), Y6
	VPMOVSXBW 32(SI), Y8
	VPMOVSXBW 48(SI), Y10
	MADD(0, R9, Y4, Y5, Y0)
	MADD(4, R9, Y6, Y7, Y1)
	MADD(8, R9, Y8, Y9, Y0)
	MADD(12, R9, Y10, Y11, Y1)
	ADDQ $64, SI
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  one4

one1:
	CMPQ AX, R8
	JEQ  one2
	VPMOVSXBW (SI), Y4
	MADD(0, R9, Y4, Y5, Y0)
	ADDQ $16, SI
	ADDQ $4, AX
	JMP  one1

one2:
	VPADDD Y1, Y0, Y0

scores:
	MOVQ BX, AX
	SHLQ $5, AX               // the group's (scale, base): 32 bytes each
	MOVQ scale+32(FP), SI
	VCVTPS2PD (SI)(AX*1), Y8  // s
	VCVTPS2PD 16(SI)(AX*1), Y9
	MOVQ base+40(FP), SI
	VCVTPS2PD (SI)(AX*1), Y10 // b
	VCVTPS2PD 16(SI)(AX*1), Y11
	CMPB bound+56(FP), $0
	JNE  bounds
	APPROX(0, X0, Y0)
	STORE(0)
	CMPQ nq+8(FP), $1
	JEQ  next
	APPROX(1, X1, Y1)
	STORE(1)
	CMPQ nq+8(FP), $2
	JEQ  next
	APPROX(2, X2, Y2)
	STORE(2)
	CMPQ nq+8(FP), $3
	JEQ  next
	APPROX(3, X3, Y3)
	STORE(3)
	JMP  next

bounds:
	VANDPD absMask<>(SB), Y10, Y12 // |b|
	VANDPD absMask<>(SB), Y11, Y13
	APPROX(0, X0, Y0)
	BOUND(0)
	STORE(0)
	CMPQ nq+8(FP), $1
	JEQ  next
	APPROX(1, X1, Y1)
	BOUND(1)
	STORE(1)
	CMPQ nq+8(FP), $2
	JEQ  next
	APPROX(2, X2, Y2)
	BOUND(2)
	STORE(2)
	CMPQ nq+8(FP), $3
	JEQ  next
	APPROX(3, X3, Y3)
	BOUND(3)
	STORE(3)

next:
	LEAQ (DI)(R8*4), DI       // the next group's codes
	ADDQ $64, R13
	INCQ BX
	CMPQ BX, ng+48(FP)
	JLT  group
	VZEROUPPER
	RET
