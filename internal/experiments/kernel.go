package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/engine"
	"pane/internal/index"
	"pane/internal/mat"
	"pane/internal/svd"
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
	// algorithmic 3·8·d² footprint, not actual cache traffic; sq8dot
	// counts the 16-bit query, the row's codes, its (scale, base) and its
	// float64 bound, sq8rows is timed per row and counts the row's share
	// alone, and sq8rows4 is timed per (row, query) pair and counts a
	// quarter of the row's codes and (scale, base) and the pair's bound.
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
	// build and host (engine.KernelDispatch: dot/axpy/gemm/sq8dot/sq8rows/
	// sq8rows4/fp16dot → generic|avx2|neon).
	ISAs  map[string]string `json:"isas"`
	Cells []KernelCell      `json:"cells"`
	// Train times the factorization half of training on the same kernels;
	// Env is where all of it was measured. Both omitempty so reports
	// written before they existed still load (and gate nothing).
	Train *KernelTrain `json:"train,omitempty"`
	Env   *Env         `json:"env,omitempty"`
}

// KernelTrain is the train section of the kernel report: the stages
// core.PSVDCCD is made of, at the one shape the end-to-end benchmark's
// fixture hands each worker (an SMGreedyInit block of M = 15,000 nodes,
// sketch width N = k/2 + svd.Oversample = 72, D = 100 attributes), each
// the fastest of trainRepeats runs.
type KernelTrain struct {
	M int `json:"m"`
	N int `json:"n"`
	D int `json:"d"`
	// QRSeconds is one thin Householder svd.QR of an M x N panel —
	// 2·(2MN² − 2N³/3) ≈ 4MN² flops. GemmSeconds is two mat.MulAT(a, a)
	// of the same panel, 4MN² flops through the axpy kernel: what the
	// same arithmetic costs with no dependency between its passes.
	QRSeconds   float64 `json:"qr_seconds"`
	GemmSeconds float64 `json:"gemm_seconds"`
	// One CCD node half-sweep and one attribute half-sweep over an
	// M-node, D-attribute model with N − svd.Oversample coordinates per
	// row, single-threaded, read off core.Train's Timing.
	CCDNodeSeconds float64 `json:"ccd_node_seconds"`
	CCDAttrSeconds float64 `json:"ccd_attr_seconds"`
	// QRVsGemm is QRSeconds / GemmSeconds, a same-machine ratio and the
	// figure CheckKernelBaseline gates: a QR that walks its panel against
	// the memory layout costs tens of GEMMs, not a few.
	QRVsGemm float64 `json:"qr_vs_gemm"`
}

const (
	trainM, trainN, trainD = 15000, 72, 100
	trainRepeats           = 3
)

// runKernelTrain measures the train section.
func runKernelTrain(seed int64) (*KernelTrain, error) {
	rng := rand.New(rand.NewSource(seed))
	panel := mat.New(trainM, trainN)
	for i := range panel.Data {
		panel.Data[i] = rng.NormFloat64()
	}
	g, err := datagen.Generate(datagen.Config{
		Name: "kernel-train", N: trainM, AvgOutDeg: 8, D: trainD, AttrsPer: 6, Communities: 50, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	// One sweep (CCDIters) after one power iteration, one thread, so the
	// Timing's CCD fields are exactly one half-sweep each.
	cfg := core.Config{K: 2 * (trainN - svd.Oversample), Alpha: 0.5, Eps: 0.25, Threads: 1, CCDIters: 1, PowerIters: 1, Seed: seed}
	t := &KernelTrain{M: trainM, N: trainN, D: trainD,
		QRSeconds: math.Inf(1), GemmSeconds: math.Inf(1), CCDNodeSeconds: math.Inf(1), CCDAttrSeconds: math.Inf(1)}
	for rep := 0; rep < trainRepeats; rep++ {
		start := time.Now()
		_, r := svd.QR(panel)
		t.QRSeconds = math.Min(t.QRSeconds, time.Since(start).Seconds())
		start = time.Now()
		gram := mat.MulAT(panel, panel)
		gram2 := mat.MulAT(panel, panel)
		t.GemmSeconds = math.Min(t.GemmSeconds, time.Since(start).Seconds())
		kernelSink += r.Data[0] + gram.Data[0] + gram2.Data[0]
		_, tm, err := core.Train(g, cfg)
		if err != nil {
			return nil, err
		}
		t.CCDNodeSeconds = math.Min(t.CCDNodeSeconds, tm.CCDNode.Seconds())
		t.CCDAttrSeconds = math.Min(t.CCDAttrSeconds, tm.CCDAttr.Seconds())
	}
	t.QRVsGemm = t.QRSeconds / t.GemmSeconds
	return t, nil
}

// kernelSink keeps the timed loops' results observable so the compiler
// cannot hoist or eliminate the kernel calls.
var kernelSink float64

// kernelRunRows is how many rows one sq8rows call scores: the most an int8
// scan hands the kernel at once.
const kernelRunRows = 64

// sameI8Scan runs sc through the portable and the dispatched kernel and
// reports the first bound that differs in a bit.
func sameI8Scan(sc *index.I8Scan) error {
	sc.RunGeneric()
	want := make([][]float64, sc.Queries())
	for x := range want {
		want[x] = append([]float64(nil), sc.Bounds(x)...)
	}
	sc.Run()
	for x, w := range want {
		for r, g := range w {
			if s := sc.Bounds(x)[r]; math.Float64bits(s) != math.Float64bits(g) {
				return fmt.Errorf("query %d row %d: %v != %v", x, r, s, g)
			}
		}
	}
	return nil
}

// RunKernel times the scan kernels (float64 dot, blocked GEMM, the int8
// row kernel on one row, on a run of rows, and on a run against four
// queries, fp16 decode-and-accumulate) at each dim,
// portable vs dispatched, on deterministic pseudo-random inputs, and the
// training stages built on them at one fixed shape (KernelTrain). It
// fails (rather than reporting a meaningless grid) when a dispatched
// kernel disagrees with its portable twin — the bit-identity contract the
// index tiers are built on, checked here one more time on the bench's own
// inputs.
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

	b := &KernelBench{ISAs: engine.KernelDispatch(), Env: CaptureEnv()}
	var err error
	if b.Train, err = runKernelTrain(opt.Seed); err != nil {
		return nil, err
	}
	for _, d := range opt.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("experiments: non-positive kernel dim %d", d)
		}
		av := make([]float64, d)
		bv := make([]float64, d)
		for i := 0; i < d; i++ {
			av[i] = rng.NormFloat64()
			bv[i] = rng.NormFloat64()
		}
		// A run of encoded rows for sq8rows and sq8rows4, its first for
		// sq8dot, and av (with three more queries for sq8rows4) prepared
		// as the exact scan prepares them.
		rm := mat.New(kernelRunRows, d)
		for i := range rm.Data {
			rm.Data[i] = rng.NormFloat64()
		}
		qs := [][]float64{av, make([]float64, d), make([]float64, d), make([]float64, d)}
		for _, q := range qs[1:] {
			for i := range q {
				q[i] = rng.NormFloat64()
			}
		}
		one := index.PrepareI8Scan(rm.RowView(0, 1), av)
		run := index.PrepareI8Scan(rm, av)
		run4 := index.PrepareI8Scan(rm, qs...)
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
		for op, sc := range map[string]*index.I8Scan{"sq8dot": one, "sq8rows": run, "sq8rows4": run4} {
			if err := sameI8Scan(sc); err != nil {
				return nil, fmt.Errorf("experiments: %s dispatch diverges from generic at dim %d: %v", op, d, err)
			}
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

		// cell times a call of each and reports it per product, per a call.
		cell := func(op string, bytes, per int, generic, dispatch func()) {
			gNs := measure(generic) / float64(per)
			sNs := measure(dispatch) / float64(per)
			b.Cells = append(b.Cells, KernelCell{
				Op: op, Dim: d, Bytes: bytes,
				GenericNsOp: gNs, DispatchNsOp: sNs,
				GenericGBs:  float64(bytes) / gNs,
				DispatchGBs: float64(bytes) / sNs,
				Speedup:     gNs / sNs,
			})
		}
		cell("dot", 16*d, 1,
			func() { kernelSink += mat.DotGeneric(av, bv) },
			func() { kernelSink += mat.Dot(av, bv) })
		cell("gemm", 3*8*d*d, 1,
			func() { mat.MulIntoGeneric(dst, am, bm); kernelSink += dst.Data[0] },
			func() { mat.MulInto(dst, am, bm); kernelSink += dst.Data[0] })
		// The int8 row kernel: a 16-bit query's dot with a row's codes,
		// turned into the row's certified bound, one call for one row.
		cell("sq8dot", 3*d+16, 1,
			func() { one.RunGeneric(); kernelSink += one.Bounds(0)[0] },
			func() { one.Run(); kernelSink += one.Bounds(0)[0] })
		// One call scores a run of rows, timed and counted per row: its ns
		// compare with sq8dot's.
		cell("sq8rows", d+16, kernelRunRows,
			func() { run.RunGeneric(); kernelSink += run.Bounds(0)[0] },
			func() { run.Run(); kernelSink += run.Bounds(0)[0] })
		// One call scores the run against four queries, as a batch scan
		// does, timed and counted per (row, query) pair: a row's codes and
		// parameters are read once for four queries.
		cell("sq8rows4", (d+8)/4+8, 4*kernelRunRows,
			func() { run4.RunGeneric(); kernelSink += run4.Bounds(3)[0] },
			func() { run4.Run(); kernelSink += run4.Bounds(3)[0] })
		cell("fp16dot", 10*d, 1,
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
	if t := b.Train; t != nil {
		fmt.Fprintf(w, "\nTraining stages at m=%d n=%d d=%d (fastest of %d):\n", t.M, t.N, t.D, trainRepeats)
		fmt.Fprintf(w, "  QR %.3fs, same-flop MulAT pair %.3fs (qr_vs_gemm %.2f); CCD node half-sweep %.3fs, attribute half-sweep %.3fs\n",
			t.QRSeconds, t.GemmSeconds, t.QRVsGemm, t.CCDNodeSeconds, t.CCDAttrSeconds)
	}
	printEnv(w, b.Env)
}

// CheckKernelBaseline is the kernel-tier CI gate. Three checks:
//
//   - Dispatch regression: an op the baseline ran vectorized (avx2/neon)
//     that the current run dispatches to "generic" fails outright — a
//     build-tag or CPU-detection regression silently costs more than any
//     timing wobble, and the ratio gate below would not see it (the
//     generic/generic ratio is a healthy-looking 1.0x).
//
//   - Speedup regression: per (op, dim) cell present in both reports,
//     the same-run generic/dispatched ratio must stay within tol of the
//     baseline's. The ratio is same-machine by construction, so the
//     baseline's host drops out; tol is generous (CI passes 0.5) because
//     microbenchmark ratios wobble more than end-to-end QPS.
//
//   - Training regression: when both reports carry a train section,
//     qr_vs_gemm (QR seconds over same-flop GEMM seconds, lower is
//     better) may not exceed the baseline's by more than tol.
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
	if cur.Train != nil && base.Train != nil && cur.Train.QRVsGemm > base.Train.QRVsGemm*(1+tol) {
		failures = append(failures, fmt.Sprintf("train qr_vs_gemm %.2f rose more than %.0f%% above baseline %.2f",
			cur.Train.QRVsGemm, tol*100, base.Train.QRVsGemm))
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
