package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunKernelSmallEndToEnd(t *testing.T) {
	b, err := RunKernel(KernelOptions{Dims: []int{32, 37}, MinTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// 6 ops × 2 dims (32 fills the int8 kernel's pairs, 37 ends on a
	// padded one), every cell timed and self-consistent.
	if len(b.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(b.Cells))
	}
	for _, c := range b.Cells {
		if c.GenericNsOp <= 0 || c.DispatchNsOp <= 0 || c.Bytes <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
		if want := c.GenericNsOp / c.DispatchNsOp; c.Speedup != want {
			t.Fatalf("cell %s/%d speedup %v inconsistent with timings (want %v)", c.Op, c.Dim, c.Speedup, want)
		}
	}
	for _, op := range []string{"dot", "axpy", "gemm", "sq8dot", "sq8rows", "sq8rows4", "fp16dot"} {
		if b.ISAs[op] == "" {
			t.Fatalf("ISAs missing %q: %v", op, b.ISAs)
		}
	}
	// The train section: every stage timed at the fixed shape, and a
	// kernel-backed QR within a small multiple of the same-flop GEMM (the
	// strided one it replaced measured 40-50x).
	tr := b.Train
	if tr == nil || tr.M != 15000 || tr.N != 72 || tr.D != 100 {
		t.Fatalf("train section %+v", tr)
	}
	if tr.QRSeconds <= 0 || tr.GemmSeconds <= 0 || tr.CCDNodeSeconds <= 0 || tr.CCDAttrSeconds <= 0 {
		t.Fatalf("degenerate train section %+v", tr)
	}
	if want := tr.QRSeconds / tr.GemmSeconds; tr.QRVsGemm != want || tr.QRVsGemm > 10 {
		t.Fatalf("qr_vs_gemm %v (QR %vs, GEMM %vs)", tr.QRVsGemm, tr.QRSeconds, tr.GemmSeconds)
	}
	if e := b.Env; e == nil || e.Cores < 1 || e.Go == "" {
		t.Fatalf("env stamp %+v", b.Env)
	}

	var out bytes.Buffer
	PrintKernel(&out, b)
	for _, want := range []string{"Kernel dispatch:", "fp16dot", "gemm", "qr_vs_gemm", "env:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, out.String())
		}
	}

	path := filepath.Join(t.TempDir(), "kernel.json")
	if err := WriteJSON(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON[KernelBench](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(b.Cells) || back.ISAs["dot"] != b.ISAs["dot"] ||
		back.Train == nil || *back.Train != *b.Train || back.Env == nil || back.Env.Go != b.Env.Go {
		t.Fatalf("JSON round trip changed the report")
	}
	// A fresh run gates cleanly against itself at zero tolerance.
	if err := CheckKernelBaseline(b, back, 0.0); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
}

// kernelBench returns a baseline-shaped report for gate tests,
// independent of the host the test runs on.
func kernelBench() *KernelBench {
	return &KernelBench{
		ISAs: map[string]string{"dot": "avx2", "axpy": "avx2", "gemm": "avx2", "sq8dot": "avx2", "fp16dot": "avx2"},
		Cells: []KernelCell{
			{Op: "dot", Dim: 128, Bytes: 2048, GenericNsOp: 100, DispatchNsOp: 25, Speedup: 4.0},
			{Op: "sq8dot", Dim: 128, Bytes: 256, GenericNsOp: 80, DispatchNsOp: 10, Speedup: 8.0},
		},
	}
}

func TestCheckKernelBaselineGates(t *testing.T) {
	base := kernelBench()

	// Within tolerance passes.
	cur := kernelBench()
	cur.Cells[0].Speedup = 2.5
	if err := CheckKernelBaseline(cur, base, 0.5); err != nil {
		t.Fatalf("in-tolerance run rejected: %v", err)
	}

	// A dispatched kernel falling back to generic fails even when every
	// ratio looks healthy.
	cur = kernelBench()
	cur.ISAs["sq8dot"] = "generic"
	err := CheckKernelBaseline(cur, base, 0.5)
	if err == nil || !strings.Contains(err.Error(), "regressed to generic") {
		t.Fatalf("dispatch regression not caught: %v", err)
	}

	// A large same-machine speedup drop fails.
	cur = kernelBench()
	cur.Cells[1].Speedup = 2.0 // 8x → 2x
	err = CheckKernelBaseline(cur, base, 0.5)
	if err == nil || !strings.Contains(err.Error(), "sq8dot dim=128") {
		t.Fatalf("speedup regression not caught: %v", err)
	}

	// A generic baseline (e.g. recorded under noasm) gates nothing.
	genBase := kernelBench()
	for op := range genBase.ISAs {
		genBase.ISAs[op] = "generic"
	}
	for i := range genBase.Cells {
		genBase.Cells[i].Speedup = 1.0
	}
	genCur := kernelBench()
	for op := range genCur.ISAs {
		genCur.ISAs[op] = "generic"
	}
	genCur.Cells[0].Speedup = 0.5
	if err := CheckKernelBaseline(genCur, genBase, 0.5); err != nil {
		t.Fatalf("generic baseline gated: %v", err)
	}

	// The train ratio is lower-is-better: within tolerance passes, a QR
	// that fell off the kernels fails, and a baseline (or a run) without
	// the section gates nothing.
	base.Train = &KernelTrain{QRSeconds: 0.06, GemmSeconds: 0.03, QRVsGemm: 2}
	cur = kernelBench()
	cur.Train = &KernelTrain{QRSeconds: 0.08, GemmSeconds: 0.03, QRVsGemm: 2.9}
	if err := CheckKernelBaseline(cur, base, 0.5); err != nil {
		t.Fatalf("in-tolerance train ratio rejected: %v", err)
	}
	cur.Train = &KernelTrain{QRSeconds: 1.6, GemmSeconds: 0.03, QRVsGemm: 53}
	err = CheckKernelBaseline(cur, base, 0.5)
	if err == nil || !strings.Contains(err.Error(), "qr_vs_gemm") {
		t.Fatalf("strided-QR regression not caught: %v", err)
	}
	if err := CheckKernelBaseline(cur, kernelBench(), 0.5); err != nil {
		t.Fatalf("baseline without a train section gated: %v", err)
	}
	if err := CheckKernelBaseline(kernelBench(), base, 0.5); err != nil {
		t.Fatalf("run without a train section gated: %v", err)
	}

	if err := CheckKernelBaseline(kernelBench(), base, -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}
