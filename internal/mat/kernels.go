package mat

// Instruction-set names reported by KernelISAs (and by the analogous
// introspection hooks in internal/index). They feed the
// pane_kernel_dispatch gauge and the /healthz kernels section, so a
// misdeployed binary silently running generic kernels is visible.
const (
	ISAGeneric = "generic"
	ISAAVX2    = "avx2"
	ISANEON    = "neon"
)

// KernelISAs reports, per float64 kernel op, which instruction set this
// build dispatches to on this host. All three ops share one dispatch
// decision (the AVX2 feature check), but they are reported separately so
// the observability surface does not bake that implementation detail in.
func KernelISAs() map[string]string {
	isa := kernelISA()
	return map[string]string{
		"dot":  isa,
		"axpy": isa,
		"gemm": isa,
	}
}
