//go:build arm64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// Go's arm64 assembler has no SXTL/SMLAL/ADDP vector mnemonics, so those
// are WORD-encoded (register fields Rd = bits 4:0, Rn = 9:5, Rm = 20:16).
#define SXTL(d, n) WORD $(0x0F08A400|(n)<<5|(d))                // SXTL   Vd.8H, Vn.8B
#define SXTL2(d, n) WORD $(0x4F08A400|(n)<<5|(d))               // SXTL2  Vd.8H, Vn.16B
#define SMLAL(d, n, m) WORD $(0x0E608000|(m)<<16|(n)<<5|(d))    // SMLAL  Vd.4S, Vn.4H, Vm.4H
#define SMLAL2(d, n, m) WORD $(0x4E608000|(m)<<16|(n)<<5|(d))   // SMLAL2 Vd.4S, Vn.8H, Vm.8H
#define ADDP(d, n, m) WORD $(0x4EA0BC00|(m)<<16|(n)<<5|(d))     // ADDP   Vd.4S, Vn.4S, Vm.4S

// MAC multiplies the widened chunk — rows 0-3 in V1, 4-7 in V2, each
// row's two codes side by side — by the query pair broadcast in Vq, and
// adds the products into four accumulators from Va on: lanes 2r and
// 2r+1 of the four hold row r's two products.
#define MAC(q, a) \
	SMLAL(a, 1, q); \
	SMLAL2(a+1, 1, q); \
	SMLAL(a+2, 2, q); \
	SMLAL2(a+3, 2, q)

// func dotsNEON(l *lanes, nq, pairs int, codes *int8, ng int)
//
// The int32 dots of ng >= 1 groups of 8 rows whose codes (pairs >= 1
// chunks a group) start at codes with the first nq (1 to 4) queries of
// l, left in l.dots. Each 16-byte chunk holds two codes of each of the
// group's rows; it is sign-extended to 16-bit lanes once (SXTL, SXTL2)
// and, for each query, multiplied by that query's two levels for those
// dimensions, duplicated to every row (VDUP), and accumulated into
// int32 lanes (SMLAL, SMLAL2): query x's accumulators are V16+4x to
// V19+4x. At the group's end one pairwise add per four rows (ADDP) leaves
// row r's dot in lane r. Integer addition is exact and every partial sum
// is under 2^31 (queryLevels), so each dot is exact.
TEXT ·dotsNEON(SB), NOSPLIT, $0-40
	MOVD l+0(FP), R0
	MOVD nq+8(FP), R1
	MOVD pairs+16(FP), R2
	MOVD codes+24(FP), R3
	MOVD ng+32(FP), R4
	MOVD (lanes_q+0*24)(R0), R5
	MOVD (lanes_q+1*24)(R0), R6
	MOVD (lanes_q+2*24)(R0), R7
	MOVD (lanes_q+3*24)(R0), R8
	ADD  $lanes_dots, R0, R9  // the group's dots for query 0

group:
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
	VEOR V18.B16, V18.B16, V18.B16
	VEOR V19.B16, V19.B16, V19.B16
	VEOR V20.B16, V20.B16, V20.B16
	VEOR V21.B16, V21.B16, V21.B16
	VEOR V22.B16, V22.B16, V22.B16
	VEOR V23.B16, V23.B16, V23.B16
	VEOR V24.B16, V24.B16, V24.B16
	VEOR V25.B16, V25.B16, V25.B16
	VEOR V26.B16, V26.B16, V26.B16
	VEOR V27.B16, V27.B16, V27.B16
	VEOR V28.B16, V28.B16, V28.B16
	VEOR V29.B16, V29.B16, V29.B16
	VEOR V30.B16, V30.B16, V30.B16
	VEOR V31.B16, V31.B16, V31.B16
	MOVD ZR, R10              // the chunk's query pair offset: 4 a chunk
	MOVD R2, R11              // chunks left

chunk:
	VLD1.P 16(R3), [V0.B16]
	SXTL(1, 0)
	SXTL2(2, 0)
	MOVWU (R5)(R10), R12
	VDUP  R12, V3.S4
	MAC(3, 16)
	CMP   $1, R1
	BEQ   step
	MOVWU (R6)(R10), R12
	VDUP  R12, V4.S4
	MAC(4, 20)
	CMP   $2, R1
	BEQ   step
	MOVWU (R7)(R10), R12
	VDUP  R12, V5.S4
	MAC(5, 24)
	CMP   $3, R1
	BEQ   step
	MOVWU (R8)(R10), R12
	VDUP  R12, V6.S4
	MAC(6, 28)

step:
	ADD  $4, R10
	SUBS $1, R11
	BNE  chunk

	ADDP(16, 16, 17)          // rows 0-3
	ADDP(17, 18, 19)          // rows 4-7
	VST1 [V16.S4, V17.S4], (R9)
	CMP  $1, R1
	BEQ  next
	ADDP(20, 20, 21)
	ADDP(21, 22, 23)
	ADD  $(const_runRows*4), R9, R13
	VST1 [V20.S4, V21.S4], (R13)
	CMP  $2, R1
	BEQ  next
	ADDP(24, 24, 25)
	ADDP(25, 26, 27)
	ADD  $(2*const_runRows*4), R9, R13
	VST1 [V24.S4, V25.S4], (R13)
	CMP  $3, R1
	BEQ  next
	ADDP(28, 28, 29)
	ADDP(29, 30, 31)
	ADD  $(3*const_runRows*4), R9, R13
	VST1 [V28.S4, V29.S4], (R13)

next:
	ADD  $32, R9              // 8 dots further
	SUBS $1, R4
	BNE  group
	RET
