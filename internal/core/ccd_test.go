package core

import (
	"math"
	"math/rand"
	"testing"

	"pane/internal/mat"
)

// affinityPair builds a synthetic (F', B') pair with correlated structure,
// standing in for APMI output in solver unit tests.
func affinityPair(rng *rand.Rand, n, d, rank int) (f, b *mat.Dense) {
	base := func() *mat.Dense {
		l := mat.New(n, rank)
		r := mat.New(rank, d)
		for i := range l.Data {
			l.Data[i] = math.Abs(rng.NormFloat64())
		}
		for i := range r.Data {
			r.Data[i] = math.Abs(rng.NormFloat64())
		}
		m := mat.Mul(l, r)
		m.Log1pScaled(1)
		return m
	}
	return base(), base()
}

func TestGreedyInitApproximatesForwardAffinity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, b := affinityPair(rng, 40, 15, 4)
	st := GreedyInit(f.Clone(), b.Clone(), 8, 4, rng, 1)
	// Xf·Yᵀ should already be a decent approximation of F'.
	approx := mat.MulBT(st.Xf, st.Y)
	approx.Sub(f)
	rel := approx.FrobeniusNorm() / f.FrobeniusNorm()
	if rel > 0.25 {
		t.Fatalf("greedy init forward relative error %v too high", rel)
	}
}

func TestGreedyInitResidualsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f, b := affinityPair(rng, 30, 12, 3)
	st := GreedyInit(f.Clone(), b.Clone(), 6, 3, rng, 1)
	wantSf := mat.MulBT(st.Xf, st.Y)
	wantSf.Sub(f)
	wantSb := mat.MulBT(st.Xb, st.Y)
	wantSb.Sub(b)
	if st.Sf.MaxAbsDiff(wantSf) > 1e-10 || st.Sb.MaxAbsDiff(wantSb) > 1e-10 {
		t.Fatal("initial residuals inconsistent with embeddings")
	}
}

func TestCCDResidualMaintenance(t *testing.T) {
	// After any number of sweeps the incrementally maintained Sf/Sb must
	// equal the from-scratch residuals — the correctness core of
	// Equations (18)-(20).
	rng := rand.New(rand.NewSource(3))
	f, b := affinityPair(rng, 25, 10, 3)
	st := GreedyInit(f.Clone(), b.Clone(), 6, 3, rng, 1)
	for sweep := 1; sweep <= 3; sweep++ {
		refine(st, 1, 1)
		wantSf := mat.MulBT(st.Xf, st.Y)
		wantSf.Sub(f)
		wantSb := mat.MulBT(st.Xb, st.Y)
		wantSb.Sub(b)
		if d := st.Sf.MaxAbsDiff(wantSf); d > 1e-9 {
			t.Fatalf("sweep %d: Sf drift %v", sweep, d)
		}
		if d := st.Sb.MaxAbsDiff(wantSb); d > 1e-9 {
			t.Fatalf("sweep %d: Sb drift %v", sweep, d)
		}
	}
}

// peek returns st's factors as an embedding without ending st, which
// embedding does: the sweeps go on after it.
func peek(st *state) *Embedding {
	return &Embedding{Xf: st.Xf.Paged(), Xb: st.Xb.Paged(), Y: st.Y}
}

func TestCCDMonotoneObjective(t *testing.T) {
	// Each coordinate update is an exact 1-D minimization, so the
	// objective must be non-increasing across sweeps.
	rng := rand.New(rand.NewSource(4))
	f, b := affinityPair(rng, 35, 14, 5)
	st := RandomInit(f.Clone(), b.Clone(), 8, rng, 1)
	prev := Objective(peek(st), f, b)
	for sweep := 0; sweep < 5; sweep++ {
		refine(st, 1, 1)
		cur := Objective(peek(st), f, b)
		if cur > prev+1e-9 {
			t.Fatalf("objective rose from %v to %v at sweep %d", prev, cur, sweep)
		}
		prev = cur
	}
}

func TestParallelCCDMatchesSerial(t *testing.T) {
	// From an identical starting state, the block-parallel sweeps must
	// produce exactly the serial result (disjoint writes).
	rng := rand.New(rand.NewSource(5))
	f, b := affinityPair(rng, 30, 13, 4)
	mkState := func() *state {
		r := rand.New(rand.NewSource(99))
		return GreedyInit(f.Clone(), b.Clone(), 6, 3, r, 1)
	}
	serial := mkState()
	refine(serial, 3, 1)
	for _, nb := range []int{2, 4, 8} {
		par := mkState()
		refine(par, 3, nb)
		if d := par.Xf.MaxAbsDiff(serial.Xf); d > 1e-12 {
			t.Fatalf("nb=%d: Xf deviates by %v", nb, d)
		}
		if d := par.Y.MaxAbsDiff(serial.Y); d > 1e-12 {
			t.Fatalf("nb=%d: Y deviates by %v", nb, d)
		}
		if d := par.Xb.MaxAbsDiff(serial.Xb); d > 1e-12 {
			t.Fatalf("nb=%d: Xb deviates by %v", nb, d)
		}
	}
}

func TestGreedyInitBeatsRandomInit(t *testing.T) {
	// §5.7's claim in solver form: at equal sweep counts, greedy
	// initialization reaches a lower objective than random initialization.
	rng := rand.New(rand.NewSource(6))
	f, b := affinityPair(rng, 50, 20, 6)
	cfgIters := 2
	g := GreedyInit(f.Clone(), b.Clone(), 8, 4, rand.New(rand.NewSource(7)), 1)
	r := RandomInit(f.Clone(), b.Clone(), 8, rand.New(rand.NewSource(7)), 1)
	refine(g, cfgIters, 1)
	refine(r, cfgIters, 1)
	og := Objective(peek(g), f, b)
	or := Objective(peek(r), f, b)
	if og >= or {
		t.Fatalf("greedy objective %v not below random %v", og, or)
	}
}

func TestSMGreedyInitCloseToSerial(t *testing.T) {
	// Lemma 4.2's practical content: split-merge init approximates F'
	// essentially as well as the serial greedy init.
	rng := rand.New(rand.NewSource(8))
	f, b := affinityPair(rng, 60, 18, 4)
	serial := GreedyInit(f.Clone(), b.Clone(), 8, 5, rand.New(rand.NewSource(1)), 1)
	sm := SMGreedyInit(f.Clone(), b.Clone(), 8, 5, rand.New(rand.NewSource(1)), 4)
	objSerial := Objective(peek(serial), f, b)
	objSM := Objective(peek(sm), f, b)
	// Allow the parallel variant a modest slack — it performs extra
	// truncations.
	if objSM > 2*objSerial+1e-9 {
		t.Fatalf("split-merge init objective %v ≫ serial %v", objSM, objSerial)
	}
	// Residuals must be internally consistent too.
	wantSf := mat.MulBT(sm.Xf, sm.Y)
	wantSf.Sub(f)
	if sm.Sf.MaxAbsDiff(wantSf) > 1e-9 {
		t.Fatal("split-merge residual Sf inconsistent")
	}
}

func TestSMGreedyInitFallbackTinyBlocks(t *testing.T) {
	// When blocks would be shorter than k/2 rows, SMGreedyInit must fall
	// back to the serial initializer rather than produce degenerate SVDs.
	rng := rand.New(rand.NewSource(9))
	f, b := affinityPair(rng, 10, 8, 2)
	st := SMGreedyInit(f.Clone(), b.Clone(), 8, 3, rng, 8) // 10 rows / 8 blocks < 4
	if st == nil || st.Xf.Rows != 10 {
		t.Fatal("fallback failed")
	}
}

func TestLemma42UnitaryYAndZeroResiduals(t *testing.T) {
	// Lemma 4.2 with exact decompositions: when rank(F') <= k/2, both
	// initializers satisfy Xf·Yᵀ = F', YᵀY = I and Sf = 0.
	rng := rand.New(rand.NewSource(10))
	l := mat.New(40, 3)
	r := mat.New(3, 12)
	for i := range l.Data {
		l.Data[i] = rng.NormFloat64()
	}
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	f := mat.Mul(l, r) // exact rank 3 <= k/2 = 4
	b := f.Clone()
	for _, nb := range []int{1, 4} {
		var st *state
		if nb == 1 {
			st = GreedyInit(f.Clone(), b.Clone(), 8, 6, rand.New(rand.NewSource(3)), 1)
		} else {
			st = SMGreedyInit(f.Clone(), b.Clone(), 8, 6, rand.New(rand.NewSource(3)), nb)
		}
		if d := st.Sf.FrobeniusNorm(); d > 1e-6 {
			t.Fatalf("nb=%d: Sf norm %v, want ~0", nb, d)
		}
		gram := mat.MulAT(st.Y, st.Y)
		for i := 0; i < gram.Rows; i++ {
			for j := 0; j < gram.Cols; j++ {
				want := 0.0
				if i == j && i < 3 {
					want = 1.0 // padded zero columns are allowed beyond the true rank
				}
				if i == j && i >= 3 {
					continue
				}
				if math.Abs(gram.At(i, j)-want) > 1e-6 {
					t.Fatalf("nb=%d: YᵀY[%d,%d] = %v", nb, i, j, gram.At(i, j))
				}
			}
		}
		// Sb·Y must vanish (the backward optimality condition of the lemma).
		sby := mat.Mul(st.Sb, st.Y)
		if sby.FrobeniusNorm() > 1e-6 {
			t.Fatalf("nb=%d: Sb·Y norm %v, want ~0", nb, sby.FrobeniusNorm())
		}
	}
}

func TestObjectiveZeroForPerfectFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xf := mat.New(5, 2)
	y := mat.New(3, 2)
	for i := range xf.Data {
		xf.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	f := mat.MulBT(xf, y)
	e := &Embedding{Xf: xf.Paged(), Xb: xf.Paged(), Y: y}
	if o := Objective(e, f, f); o > 1e-18 {
		t.Fatalf("objective %v for perfect factorization", o)
	}
}

// embeddingHash folds every bit of an embedding into 64 bits (FNV-1a).
func embeddingHash(e *Embedding) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range []*mat.Dense{e.Xf.Dense(), e.Xb.Dense(), e.Y} {
		for _, v := range m.Data {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h = (h ^ (bits >> s & 0xff)) * 1099511628211
			}
		}
	}
	return h
}

// TestSVDCCDEmbeddingBitsAcrossBuilds pins the trained bits of one small
// fixed-seed factorization. The factorization half of training is built
// from mat.Dot, mat.AxpyVec and mat.MulInto — one summation order and one
// rounding per product on every build — so the default build, -tags noasm
// and arm64 must all print and match the same two hashes (the constants
// were taken on amd64 with and without the assembly kernels). The targets
// are integer ratios so no math-library function sits between the seed
// and the bits.
func TestSVDCCDEmbeddingBitsAcrossBuilds(t *testing.T) {
	const n, d = 96, 20
	rng := rand.New(rand.NewSource(12))
	f, b := mat.New(n, d), mat.New(n, d)
	for i := range f.Data {
		f.Data[i] = float64(rng.Intn(1000)) / 128
		b.Data[i] = float64(rng.Intn(1000)) / 128
	}
	cfg := Config{K: 16, Alpha: 0.5, Eps: 0.05, Seed: 4}
	serial := embeddingHash(SVDCCD(f.Clone(), b.Clone(), cfg, 1))
	parallel := embeddingHash(PSVDCCD(f.Clone(), b.Clone(), cfg, 3))
	t.Logf("embedding hash: SVDCCD %#x, PSVDCCD(nb=3) %#x", serial, parallel)
	const wantSerial, wantParallel = 0x642eba1e8215740f, 0xe6e30ca76ae88bda
	if serial != wantSerial || parallel != wantParallel {
		t.Fatalf("embedding bits moved: SVDCCD %#x (want %#x), PSVDCCD %#x (want %#x)", serial, uint64(wantSerial), parallel, uint64(wantParallel))
	}
}

// TestCCDSweepAtKernelWidths repeats the two CCD invariants at row lengths
// that take every branch of the vector kernels (16-wide blocks, the 8 and
// 4 remainders, a scalar tail): one sweep never raises the objective and
// leaves the maintained residuals equal to Xf·Yᵀ − F', Xb·Yᵀ − B'
// recomputed from scratch, serially and in parallel, and the parallel
// sweep equals the serial one bit for bit.
func TestCCDSweepAtKernelWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f, b := affinityPair(rng, 301, 43, 6)
	mk := func() *state { return RandomInit(f.Clone(), b.Clone(), 14, rand.New(rand.NewSource(5)), 1) }
	serial := mk()
	prev := Objective(peek(serial), f, b)
	for sweep := 0; sweep < 3; sweep++ {
		refine(serial, 1, 1)
		cur := Objective(peek(serial), f, b)
		if cur > prev*(1+1e-12) {
			t.Fatalf("sweep %d raised the objective %v -> %v", sweep, prev, cur)
		}
		prev = cur
		wantSf := mat.MulBT(serial.Xf, serial.Y)
		wantSf.Sub(f)
		wantSb := mat.MulBT(serial.Xb, serial.Y)
		wantSb.Sub(b)
		if df, db := serial.Sf.MaxAbsDiff(wantSf), serial.Sb.MaxAbsDiff(wantSb); df > 1e-9 || db > 1e-9 {
			t.Fatalf("sweep %d: residual drift Sf %g, Sb %g", sweep, df, db)
		}
	}
	for _, nb := range []int{2, 5} {
		par := mk()
		refine(par, 3, nb)
		for name, pair := range map[string][2]*mat.Dense{
			"Xf": {par.Xf, serial.Xf}, "Xb": {par.Xb, serial.Xb}, "Y": {par.Y, serial.Y},
			"Sf": {par.Sf, serial.Sf}, "Sb": {par.Sb, serial.Sb},
		} {
			if !rowsEqual(pair[0].Data, pair[1].Data) {
				t.Fatalf("nb=%d: %s is not bit-identical to the serial sweep", nb, name)
			}
		}
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, shape := range [][2]int{{1, 1}, {3, 70}, {130, 7}, {200, 65}} {
		src := mat.New(shape[0], shape[1])
		for i := range src.Data {
			src.Data[i] = rng.NormFloat64()
		}
		for _, nb := range []int{1, 3} {
			dst := mat.New(shape[1], shape[0])
			transposeInto(dst, src, nb)
			if !rowsEqual(dst.Data, src.T().Data) {
				t.Fatalf("%v nb=%d: transposeInto differs from T", shape, nb)
			}
		}
	}
}
