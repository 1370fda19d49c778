//go:build arm64 && !noasm

#include "textflag.h"

// func dotI8NEON(q *int16, c *int8, n int) int32
//
// Inner product of 16-bit query values with int8 codes on baseline NEON.
// Each 16-element step loads 16 query values (two registers of eight) and
// 16 codes, sign-extends the codes to 16 bits (SXTL low half, SXTL2 high
// half), and multiply-accumulates the four 4-lane halves into four int32x4
// accumulators (SMLAL low halves, SMLAL2 high halves). Remaining elements
// run through a scalar loop. Integer addition is exact and every partial
// sum is under 2^31 (queryLevels), so the result is dotI8's.
//
// Go's arm64 assembler has no SXTL/SMLAL/ADDV vector mnemonics, so those
// are WORD-encoded (A64 encodings noted inline; register fields Rd=bits
// 4:0, Rn=9:5, Rm=20:16).
TEXT ·dotI8NEON(SB), NOSPLIT, $0-28
	MOVD q+0(FP), R0
	MOVD c+8(FP), R1
	MOVD n+16(FP), R2
	MOVW $0, R3        // running sum (int32)
	CMP  $16, R2
	BLT  tail
	VMOVI $0, V4.B16   // int32x4 accumulators
	VMOVI $0, V5.B16
	VMOVI $0, V6.B16
	VMOVI $0, V7.B16

blk16:
	VLD1.P 32(R0), [V0.B16, V1.B16] // 16 query values
	VLD1.P 16(R1), [V2.B16]         // 16 codes
	WORD $0x0F08A443   // SXTL   V3.8H, V2.8B
	WORD $0x4F08A450   // SXTL2  V16.8H, V2.16B
	WORD $0x0E638004   // SMLAL  V4.4S, V0.4H, V3.4H
	WORD $0x4E638005   // SMLAL2 V5.4S, V0.8H, V3.8H
	WORD $0x0E708026   // SMLAL  V6.4S, V1.4H, V16.4H
	WORD $0x4E708027   // SMLAL2 V7.4S, V1.8H, V16.8H
	SUB  $16, R2
	CMP  $16, R2
	BGE  blk16

	// Reduce the sixteen int32 lanes into R3.
	VADD V5.S4, V4.S4, V4.S4
	VADD V7.S4, V6.S4, V6.S4
	VADD V6.S4, V4.S4, V4.S4
	WORD $0x4EB1B884   // ADDV S4, V4.4S
	VMOV V4.S[0], R4
	ADDW R4, R3, R3

tail:
	CBZ  R2, done

tloop:
	MOVH (R0), R4      // sign-extending loads
	MOVB (R1), R5
	ADD  $2, R0
	ADD  $1, R1
	MULW R5, R4, R4
	ADDW R4, R3, R3
	SUB  $1, R2
	CBNZ R2, tloop

done:
	MOVW R3, ret+24(FP)
	RET
