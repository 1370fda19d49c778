package engine

import (
	"pane/internal/index"
	"pane/internal/mat"
)

// KernelDispatch reports, per compute kernel, the instruction set the
// process dispatches to on this build and host: "avx2" or "neon" when
// the hand-written SIMD path is active, "generic" on other platforms, on
// hosts without the feature, or under the noasm build tag. The map is a
// process constant — dispatch is decided once at startup — so it is safe
// to expose verbatim from health endpoints and metrics.
func KernelDispatch() map[string]string {
	m := mat.KernelISAs()
	m["sq8dot"] = index.DotI8ISA()
	m["sq8rows"] = index.DotI8ISA() // its own AVX2 kernel, one sq8dot call a row elsewhere
	m["fp16dot"] = index.FP16ISA()
	return m
}
