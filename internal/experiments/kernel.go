package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"pane/internal/engine"
	"pane/internal/index"
	"pane/internal/mat"
)

// KernelOptions configures the compute-kernel microbenchmark of
// RunKernel. Zero values pick the defaults noted per field.
type KernelOptions struct {
	Dims    []int         // vector lengths / square GEMM sizes; nil → {32, 64, 128, 256}
	Seed    int64         // 0 → 1
	MinTime time.Duration // minimum timed window per cell; 0 → 50ms
}

// KernelCell is one (op, dim) measurement: the portable kernel and the
// dispatched kernel timed on the same inputs in the same process.
type KernelCell struct {
	Op  string `json:"op"`
	Dim int    `json:"dim"`
	// Nominal bytes touched per call (inputs + outputs at their storage
	// width), the numerator of the GB/s columns. For gemm this is the
	// algorithmic 3·8·d² footprint, not actual cache traffic.
	Bytes        int     `json:"bytes"`
	GenericNsOp  float64 `json:"generic_ns_op"`
	DispatchNsOp float64 `json:"dispatch_ns_op"`
	GenericGBs   float64 `json:"generic_gb_s"`
	DispatchGBs  float64 `json:"dispatch_gb_s"`
	// Speedup is generic_ns_op / dispatch_ns_op — a same-machine,
	// same-run ratio, so it survives being compared across hosts the way
	// the top-k gate's scan-normalized speedups do.
	Speedup float64 `json:"speedup"`
}

// KernelBench is the kernel microbenchmark report emitted as
// BENCH_kernel.json by `benchexp -exp kernel`: per-op dispatch decisions
// plus the generic-vs-dispatched timing grid.
type KernelBench struct {
	// ISAs records what every kernel dispatched to on the measuring
	// build and host (engine.KernelDispatch: dot/dot4/axpy/gemm/sq8dot/fp16dot
	// → generic|avx2|neon).
	ISAs  map[string]string `json:"isas"`
	Cells []KernelCell      `json:"cells"`
}

// kernelSink keeps the timed loops' results observable so the compiler
// cannot hoist or eliminate the kernel calls.
var kernelSink float64

// RunKernel times the five scan kernels (float64 dot, its four-query
// form, blocked GEMM, int8 dot, fp16 decode-and-accumulate) at each dim, portable vs
// dispatched, on deterministic pseudo-random inputs. It fails (rather
// than reporting a meaningless grid) when a dispatched kernel disagrees
// with its portable twin — the bit-identity contract the index tiers are
// built on, checked here one more time on the bench's own inputs.
func RunKernel(opt KernelOptions) (*KernelBench, error) {
	if opt.Dims == nil {
		opt.Dims = []int{32, 64, 128, 256}
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.MinTime <= 0 {
		opt.MinTime = 50 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// measure returns ns per call, growing the iteration count until the
	// timed window reaches MinTime so one scheduler blip cannot dominate.
	measure := func(f func()) float64 {
		f() // warm caches and any lazy paths before timing
		iters := 1
		for {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			el := time.Since(t0)
			if el >= opt.MinTime {
				return float64(el.Nanoseconds()) / float64(iters)
			}
			next := iters * 100
			if el > 0 {
				next = int(float64(iters) * 1.5 * float64(opt.MinTime) / float64(el))
			}
			if next <= iters {
				next = iters * 2
			}
			iters = next
		}
	}

	b := &KernelBench{ISAs: engine.KernelDispatch()}
	for _, d := range opt.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("experiments: non-positive kernel dim %d", d)
		}
		av := make([]float64, d)
		bv := make([]float64, d)
		ai := make([]int8, d)
		bi := make([]int8, d)
		for i := 0; i < d; i++ {
			av[i] = rng.NormFloat64()
			bv[i] = rng.NormFloat64()
			ai[i] = int8(rng.Intn(255) - 127)
			bi[i] = int8(rng.Intn(255) - 127)
		}
		// Four more vectors for dot4: one row (bv) against four queries.
		var qv [4][]float64
		for q := range qv {
			qv[q] = make([]float64, d)
			for i := range qv[q] {
				qv[q][i] = rng.NormFloat64()
			}
		}
		ch := index.EncodeFP16Rows(mat.FromRows([][]float64{bv}))
		am := mat.New(d, d)
		bm := mat.New(d, d)
		for i := range am.Data {
			am.Data[i] = rng.NormFloat64()
			bm.Data[i] = rng.NormFloat64()
		}
		dst := mat.New(d, d)
		dstG := mat.New(d, d)

		// Bit-identity spot check on the bench's own inputs before the
		// numbers are worth printing.
		if g, s := mat.DotGeneric(av, bv), mat.Dot(av, bv); g != s {
			return nil, fmt.Errorf("experiments: dot dispatch diverges from generic at dim %d: %v != %v", d, s, g)
		}
		var s4 [4]float64
		s4[0], s4[1], s4[2], s4[3] = mat.Dot4(qv[0], qv[1], qv[2], qv[3], bv)
		for q := range qv {
			if g := mat.DotGeneric(qv[q], bv); g != s4[q] {
				return nil, fmt.Errorf("experiments: dot4 dispatch diverges from generic at dim %d product %d: %v != %v", d, q, s4[q], g)
			}
		}
		if g, s := index.DotI8Generic(ai, bi), index.DotI8(ai, bi); g != s {
			return nil, fmt.Errorf("experiments: sq8dot dispatch diverges from generic at dim %d: %d != %d", d, s, g)
		}
		if g, s := index.DotFP16Generic(av, ch), index.DotFP16(av, ch); g != s {
			return nil, fmt.Errorf("experiments: fp16dot dispatch diverges from generic at dim %d: %v != %v", d, s, g)
		}
		mat.MulIntoGeneric(dstG, am, bm)
		mat.MulInto(dst, am, bm)
		for i := range dst.Data {
			if dst.Data[i] != dstG.Data[i] {
				return nil, fmt.Errorf("experiments: gemm dispatch diverges from generic at dim %d element %d: %v != %v",
					d, i, dst.Data[i], dstG.Data[i])
			}
		}

		cell := func(op string, bytes int, generic, dispatch func()) {
			gNs := measure(generic)
			sNs := measure(dispatch)
			b.Cells = append(b.Cells, KernelCell{
				Op: op, Dim: d, Bytes: bytes,
				GenericNsOp: gNs, DispatchNsOp: sNs,
				GenericGBs:  float64(bytes) / gNs,
				DispatchGBs: float64(bytes) / sNs,
				Speedup:     gNs / sNs,
			})
		}
		cell("dot", 16*d,
			func() { kernelSink += mat.DotGeneric(av, bv) },
			func() { kernelSink += mat.Dot(av, bv) })
		// One call is four products: compare ns/op with four times dot's.
		cell("dot4", 40*d,
			func() {
				kernelSink += mat.DotGeneric(qv[0], bv) + mat.DotGeneric(qv[1], bv) + mat.DotGeneric(qv[2], bv) + mat.DotGeneric(qv[3], bv)
			},
			func() {
				a, b, c, e := mat.Dot4(qv[0], qv[1], qv[2], qv[3], bv)
				kernelSink += a + b + c + e
			})
		cell("gemm", 3*8*d*d,
			func() { mat.MulIntoGeneric(dst, am, bm); kernelSink += dst.Data[0] },
			func() { mat.MulInto(dst, am, bm); kernelSink += dst.Data[0] })
		cell("sq8dot", 2*d,
			func() { kernelSink += float64(index.DotI8Generic(ai, bi)) },
			func() { kernelSink += float64(index.DotI8(ai, bi)) })
		cell("fp16dot", 10*d,
			func() { kernelSink += index.DotFP16Generic(av, ch) },
			func() { kernelSink += index.DotFP16(av, ch) })
	}
	return b, nil
}

// PrintKernel renders the microbenchmark grid as a table.
func PrintKernel(w io.Writer, b *KernelBench) {
	ops := make([]string, 0, len(b.ISAs))
	for op := range b.ISAs {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "Kernel dispatch:")
	for _, op := range ops {
		fmt.Fprintf(w, " %s=%s", op, b.ISAs[op])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %6s %14s %14s %10s %12s\n", "op", "dim", "generic ns", "dispatch ns", "speedup", "GB/s")
	for _, c := range b.Cells {
		fmt.Fprintf(w, "%-10s %6d %14.1f %14.1f %9.2fx %12.2f\n",
			c.Op, c.Dim, c.GenericNsOp, c.DispatchNsOp, c.Speedup, c.DispatchGBs)
	}
}

// WriteKernelJSON writes the report to path as indented JSON.
func WriteKernelJSON(path string, b *KernelBench) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadKernelJSON loads a report written by WriteKernelJSON — typically
// the committed baseline a CI run gates against.
func ReadKernelJSON(path string) (*KernelBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &KernelBench{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("experiments: parsing baseline %s: %w", path, err)
	}
	return b, nil
}

// CheckKernelBaseline is the kernel-tier CI gate. Two checks:
//
//   - Dispatch regression: an op the baseline ran vectorized (avx2/neon)
//     that the current run dispatches to "generic" fails outright — a
//     build-tag or CPU-detection regression silently costs more than any
//     timing wobble, and the ratio gate below would not see it (the
//     generic/generic ratio is a healthy-looking 1.0x).
//   - Speedup regression: per (op, dim) cell present in both reports,
//     the same-run generic/dispatched ratio must stay within tol of the
//     baseline's. The ratio is same-machine by construction, so the
//     baseline's host drops out; tol is generous (CI passes 0.5) because
//     microbenchmark ratios wobble more than end-to-end QPS.
//
// Cells only the baseline has (a dim the current run skipped) are
// ignored; a baseline without SIMD (generic ISAs) gates nothing, so the
// noasm build can run the bench without tripping its own gate.
func CheckKernelBaseline(cur, base *KernelBench, tol float64) error {
	if tol < 0 {
		return fmt.Errorf("experiments: negative tolerance %v", tol)
	}
	var failures []string
	for op, baseISA := range base.ISAs {
		if baseISA != "generic" && cur.ISAs[op] == "generic" {
			failures = append(failures, fmt.Sprintf("%s dispatch regressed to generic (baseline ran %s)", op, baseISA))
		}
	}
	baseCells := make(map[[2]interface{}]KernelCell, len(base.Cells))
	for _, c := range base.Cells {
		baseCells[[2]interface{}{c.Op, c.Dim}] = c
	}
	for _, c := range cur.Cells {
		bc, ok := baseCells[[2]interface{}{c.Op, c.Dim}]
		if !ok || bc.Speedup <= 1 {
			continue
		}
		if cur.ISAs[c.Op] == "generic" {
			// Already reported above as a dispatch regression (or the
			// baseline was generic too and bc.Speedup ≤ 1 skipped it);
			// a generic/generic timing ratio carries no extra signal.
			continue
		}
		if c.Speedup < bc.Speedup*(1-tol) {
			failures = append(failures, fmt.Sprintf("%s dim=%d speedup %.2fx dropped more than %.0f%% below baseline %.2fx",
				c.Op, c.Dim, c.Speedup, tol*100, bc.Speedup))
		}
	}
	if len(failures) == 0 {
		return nil
	}
	msg := "experiments: kernel perf regression vs baseline:"
	for _, f := range failures {
		msg += "\n  - " + f
	}
	return fmt.Errorf("%s", msg)
}
