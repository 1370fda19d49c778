//go:build arm64 && !noasm

package index

import "pane/internal/mat"

// Advanced SIMD (NEON) is part of the baseline ARMv8-A profile and Go's
// arm64 port already assumes it, so unlike amd64 there is no feature
// check: the vector kernel is always usable. The kernel deliberately
// sticks to baseline SXTL/SMLAL rather than SDOT — the DotProd extension
// is optional pre-ARMv8.4, takes int8 operands only, and detecting it
// portably needs OS hwcaps.

// dotsNEON is dotI8Rows's integer half over ng >= 1 groups of codes with
// pairs >= 1 dimension pairs, against the first nq (1 to 4) queries of l:
// it leaves each row's dot in l.dots, as dotsGeneric does. Implemented in
// sq8dot_arm64.s.
//
//go:noescape
func dotsNEON(l *lanes, nq, pairs int, codes *int8, ng int)

// dotI8RowsSIMD runs dotI8Rows with NEON dots under the Go arithmetic of
// finish, and reports whether it did.
func dotI8RowsSIMD(l *lanes, nq int, codes []int8, scale, base []float32, bound bool) bool {
	if len(l.q[0]) == 0 {
		return false
	}
	dotsNEON(l, nq, len(l.q[0])/2, &codes[0], len(scale)/groupRows)
	l.finish(nq, scale, base, bound)
	return true
}

// DotI8ISA reports the instruction set the int8 row kernel dispatches to
// on this build and host.
func DotI8ISA() string {
	return mat.ISANEON
}
