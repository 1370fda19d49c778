package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pane/internal/core"
	"pane/internal/mat"
)

// QuantizeRows is the row-major reference encoding the tests hold a
// table's grouped codes to: the per-row SQ8 encoding of data. codes holds
// data.Rows*data.Cols int8 codes row-major, and row i reconstructs as
// x̂[j] = base[i] + scale[i]·codes[i*dim+j], with |x − x̂| ≤ scale[i]/2
// per element up to float32 rounding of the stored parameters (f64Codec
// states the bound with that rounding included). Constant
// rows get scale 0 and exact base. The encoding is deterministic in data
// alone — no seeds, no global statistics — so any row slice of data
// quantizes to the corresponding slice of (codes, scale, base).
func QuantizeRows(data *mat.Dense) (codes []int8, scale, base []float32) {
	n, dim := data.Rows, data.Cols
	codes, scale, base = make([]int8, n*dim), make([]float32, n), make([]float32, n)
	for i := range n {
		scale[i], base[i] = quantizeRowInto(data.Row(i), codes[i*dim:(i+1)*dim], 2)
	}
	return codes, scale, base
}

// TestQuantizeRowsReconstructionBound is property (a) of the SQ8 tier:
// every element reconstructs to within half a code step of its row's
// scale (plus float32 parameter rounding), and constant rows reconstruct
// exactly up to float32.
func TestQuantizeRowsReconstructionBound(t *testing.T) {
	data := mixture(500, 12, 7, 21)
	// Mix in adversarial rows: constant, single-spike, huge range.
	copy(data.Row(0), make([]float64, 12)) // all zero
	for j := range data.Row(1) {
		data.Row(1)[j] = 3.25 // constant non-zero
	}
	data.Row(2)[5] = 1e6 // one huge outlier stretches the row range
	codes, scale, base := QuantizeRows(data)
	if len(codes) != data.Rows*data.Cols || len(scale) != data.Rows || len(base) != data.Rows {
		t.Fatalf("shape: %d codes %d scales %d bases", len(codes), len(scale), len(base))
	}
	for i := 0; i < data.Rows; i++ {
		row := data.Row(i)
		s, b := float64(scale[i]), float64(base[i])
		for j, v := range row {
			rec := b + s*float64(codes[i*data.Cols+j])
			bound := s/2 + 1e-5*(1+math.Abs(v))
			if d := math.Abs(v - rec); d > bound {
				t.Fatalf("row %d col %d: |%v - %v| = %v > bound %v (scale %v)", i, j, v, rec, d, bound, s)
			}
		}
	}
}

// TestSQ8FullRerankEqualsExact is property (b): when the re-rank window
// covers every candidate, the quantized backend's answer is bit-for-bit
// the exact backend's, at every thread count and with skips.
func TestSQ8FullRerankEqualsExact(t *testing.T) {
	data := mixture(2000, 8, 16, 31)
	queries := mixture(30, 8, 16, 32)
	exact := NewExact(data, 4)
	for _, threads := range []int{1, 3, 8} {
		// rerank covers n for every k used below.
		sq := NewSQ8(data, data.Rows, threads)
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			want := exact.Search(q, 10, Options{})
			got := sq.Search(q, 10, Options{})
			if !sameScored(got, want) {
				t.Fatalf("threads=%d query %d:\nsq8   %v\nexact %v", threads, qi, got, want)
			}
		}
	}
	// Skip filtering under a full re-rank.
	sq := NewSQ8(data, data.Rows, 2)
	skip := func(id int) bool { return id%3 == 0 }
	q := queries.Row(0)
	if !sameScored(sq.Search(q, 7, Options{Skip: skip}), exact.Search(q, 7, Options{Skip: skip})) {
		t.Fatal("sq8 skip filter diverges from exact")
	}
	// rerank 0 resolves to the default at build time; a build-time
	// rerank covering every row reaches the full window.
	if def := NewSQ8(data, 0, 2); def.Rerank() != DefaultRerank {
		t.Fatalf("default rerank %d", def.Rerank())
	}
	full := NewSQ8(data, data.Rows, 2).Search(q, 10, Options{})
	if !sameScored(full, exact.Search(q, 10, Options{})) {
		t.Fatal("a covering build-time rerank does not reach the full window")
	}
}

// TestIVFSQFullProbeFullRerankEqualsExact: the combined backend
// degenerates to exact when probing every list with a covering re-rank.
func TestIVFSQFullProbeFullRerankEqualsExact(t *testing.T) {
	data := mixture(1500, 8, 12, 33)
	queries := mixture(25, 8, 12, 34)
	exact := NewExact(data, 4)
	iv := BuildIVF(data, IVFConfig{NList: 12, Seed: 5, Threads: 4})
	sq := NewIVFSQ(iv, data, data.Rows)
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		want := exact.Search(q, 10, Options{})
		got := sq.Search(q, 10, Options{NProbe: iv.NList()})
		if !sameScored(got, want) {
			t.Fatalf("query %d:\nivfsq %v\nexact %v", qi, got, want)
		}
	}
}

// TestSQ8DefaultRerankRecall: at the default (partial) re-rank window the
// quantized scan must still recover essentially the whole exact top-10 —
// the serving-path recall floor the CI perf gate also enforces.
func TestSQ8DefaultRerankRecall(t *testing.T) {
	const n, dim, k, nq = 20000, 16, 10, 100
	data := mixture(n, dim, 64, 41)
	queries := mixture(nq, dim, 64, 42)
	exact := NewExact(data, 4)
	sq := NewSQ8(data, 0, 4)
	var hit, total int
	for qi := 0; qi < nq; qi++ {
		q := queries.Row(qi)
		want := exact.Search(q, k, Options{})
		got := sq.Search(q, k, Options{})
		in := make(map[int]bool, len(want))
		for _, s := range want {
			in[s.ID] = true
		}
		for _, s := range got {
			if in[s.ID] {
				hit++
			}
		}
		total += len(want)
	}
	recall := float64(hit) / float64(total)
	t.Logf("sq8 recall@%d = %.4f (rerank=%d)", k, recall, sq.Rerank())
	if recall < 0.99 {
		t.Fatalf("sq8 recall@%d = %.4f < 0.99", k, recall)
	}
}

// TestShardedSQ8EqualsUnsharded is property (c), and the reason the
// quantized tier quantizes per row: a sharded fan-out over row slices of
// the matrix — each slice quantized independently, searched with the
// PARTIAL default re-rank window — must return bit-for-bit the unsharded
// answer, because the survivor cut is applied globally in mergePartials.
func TestShardedSQ8EqualsUnsharded(t *testing.T) {
	data := mixture(3000, 8, 10, 51)
	queries := mixture(40, 8, 10, 52)
	whole := NewSQ8(data, 0, 2)
	for _, nShards := range []int{2, 3, 7} {
		subs := make([]Index, 0, nShards)
		for _, r := range mat.SplitRanges(data.Rows, nShards) {
			subs = append(subs, Shift(NewSQ8(data.RowView(r[0], r[1]), 0, 2), r[0]))
		}
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			skip := func(id int) bool { return id == qi*13 }
			want := whole.Search(q, 10, Options{Skip: skip})
			got := SearchSharded(subs, q, 10, Options{Skip: skip})
			if !sameScored(got, want) {
				t.Fatalf("shards=%d query %d:\nsharded   %v\nunsharded %v", nShards, qi, got, want)
			}
		}
	}
}

// TestShardedSQ8SurvivorCutIsGlobal pins the mechanism behind property
// (c): a shard must contribute its full rerank*k survivor window to the
// merge (not its local top-k), so a candidate whose quantized score
// under-ranks inside one shard can still win globally on its exact score.
func TestShardedSQ8SurvivorCutIsGlobal(t *testing.T) {
	data := mixture(1000, 8, 6, 61)
	q := mixture(1, 8, 6, 62).Row(0)
	whole := NewSQ8(data, 0, 1)
	subs := []*Table{
		NewSQ8(data.RowView(0, 400), 0, 1),
		NewSQ8(data.RowView(400, 1000), 0, 1).Shift(400),
	}
	mult := subs[0].Rerank()
	if mult != DefaultRerank {
		t.Fatalf("resolved mult %d", mult)
	}
	k := 10
	ms := []member{{k: k}}
	codecs[I8].prepare(&ms[0].query, q)
	s := &scratch{ms: ms, mult: mult, lanes: make([]lanes, len(subs)), tops: make([]*core.TopK, len(subs)), parts: make([]partial, len(subs))}
	for _, sub := range subs {
		s.units = sub.plan(s.units, ms)
	}
	if len(s.units) != len(subs) {
		t.Fatalf("%d units for %d single-threaded shards", len(s.units), len(subs))
	}
	for u := range s.units {
		s.run(u)
	}
	parts := s.parts
	if got, want := len(parts[0].quant)+len(parts[1].quant), 2*mult*k; got != want {
		t.Fatalf("survivor windows: %d candidates, want %d", got, want)
	}
	if !sameScored(mergePartials(parts, k, mult), whole.Search(q, k, Options{})) {
		t.Fatal("mergePartials diverges from the unsharded search")
	}
}

// TestQuantizedDegenerateInputs mirrors the IVF degenerate-input
// coverage for the quantized backends.
func TestQuantizedDegenerateInputs(t *testing.T) {
	// Empty index.
	empty := NewSQ8(mat.New(0, 4), 0, 2)
	if got := empty.Search([]float64{1, 2, 3, 4}, 5, Options{}); got != nil {
		t.Fatalf("empty sq8 returned %v", got)
	}
	// Zero query: every quantized score collapses to base*0, and the
	// exact re-rank must still rank correctly (all-zero exact scores tie
	// by id).
	same := mat.New(10, 3)
	for i := 0; i < 10; i++ {
		copy(same.Row(i), []float64{2, 2, 2})
	}
	sq := NewSQ8(same, 0, 1)
	got := sq.Search([]float64{0, 0, 0}, 4, Options{})
	for i, s := range got {
		if s.ID != i || s.Score != 0 {
			t.Fatalf("zero-query order %v, want ascending ids with score 0", got)
		}
	}
	// Identical vectors, non-zero query: ascending-id ties.
	got = sq.Search([]float64{1, 0, 0}, 4, Options{})
	for i, s := range got {
		if s.ID != i || s.Score != 2 {
			t.Fatalf("tie order %v", got)
		}
	}
	// One candidate through IVFSQ.
	one := mat.FromRows([][]float64{{1, 0}})
	ivsq := NewIVFSQ(BuildIVF(one, IVFConfig{NList: 5}), one, 0)
	if got := ivsq.Search([]float64{2, 0}, 3, Options{}); len(got) != 1 || got[0].ID != 0 || got[0].Score != 2 {
		t.Fatalf("one-candidate ivfsq %v", got)
	}
}

func TestQuantizedInterfaceCompliance(t *testing.T) {
	var _ Index = NewSQ8(mat.New(1, 1), 0, 1)
	var _ Index = NewIVFSQ(BuildIVF(mat.New(1, 1), IVFConfig{}), mat.New(1, 1), 0)
	reranks := func(x Index) bool { return x.(*Table).Rerank() > 0 }
	if !reranks(NewSQ8(mat.New(1, 1), 0, 1)) ||
		!reranks(NewIVFSQ(BuildIVF(mat.New(1, 1), IVFConfig{}), mat.New(1, 1), 0)) {
		t.Fatal("int8 cells must take the two-phase re-rank path")
	}
	sq := NewSQ8(mat.New(5, 3), 2, 2)
	if sq.Len() != 5 || sq.Dim() != 3 || sq.Kind() != KindSQ8 || sq.Rerank() != 2 {
		t.Fatalf("sq8 metadata: %d %d %s %d", sq.Len(), sq.Dim(), sq.Kind(), sq.Rerank())
	}
	iv := NewIVFSQ(BuildIVF(mat.New(5, 3), IVFConfig{}), mat.New(5, 3), 0)
	if iv.Len() != 5 || iv.Dim() != 3 || iv.Kind() != KindIVFSQ || iv.Rerank() != DefaultRerank {
		t.Fatalf("ivfsq metadata: %d %d %s %d", iv.Len(), iv.Dim(), iv.Kind(), iv.Rerank())
	}
	// A shifted quantized index keeps the quantized contract; a shifted
	// exact one must NOT acquire it.
	if !reranks(Shift(sq, 3)) {
		t.Fatal("shifted sq8 lost the quantized contract")
	}
	if reranks(Shift(NewExact(mat.New(5, 3), 1), 3)) {
		t.Fatal("shifted exact claims the quantized contract")
	}
}

// dotI8 is the reference the row kernel is held to: the int32 dot of a
// query's 16-bit codes with a row's int8 codes, row-major. Integer sums
// are exact and queryLevels keeps them inside int32, so any order gives
// the same value.
func dotI8(q []int16, c []int8) int32 {
	var s int32
	for j, v := range c {
		s += int32(q[j]) * int32(v)
	}
	return s
}

// encoding lays n rows of row-major int8 codes and their parameters out
// as a table holds them (see groupRows): whole groups, pad rows zero.
func encoding(codes []int8, scale, base []float32, n, dim int) Codes {
	c := i8Codec{}.alloc(n, dim)
	for j := range n {
		at := c.I8[i8At(j, dim):]
		for x, v := range codes[j*dim : (j+1)*dim] {
			at[x/2*2*groupRows+x%2] = v
		}
	}
	copy(c.Scale, scale)
	copy(c.Base, base)
	return c
}

// i8Row reads row j's codes back from an encoding as a table holds it.
func (c Codes) i8Row(j, dim int) []int8 {
	out, at := make([]int8, dim), c.I8[i8At(j, dim):]
	for x := range out {
		out[x] = at[x/2*2*groupRows+x%2]
	}
	return out
}

// kernelScores scores the n rows of one contiguous encoding c against pqs
// (one to four queries) through dotI8Rows, a run of up to runRows rows a
// call, under floors of −Inf, and returns each query's scores.
func kernelScores(pqs []*query, c Codes, n, dim int, bound bool) [][]float64 {
	var l lanes
	for x, pq := range pqs {
		l.q[x], l.f[x], l.floor[x] = pq.i16, pq.factors, math.Inf(-1)
	}
	out := make([][]float64, len(pqs))
	w := i8Width(dim)
	for j := 0; j < n; j += runRows {
		hi := padRows(min(n, j+runRows))
		dotI8Rows(&l, len(pqs), c.I8[j*w:hi*w], c.Scale[j:hi], c.Base[j:hi], bound)
		for x := range out {
			out[x] = append(out[x], l.score[x][:min(n-j, runRows)]...)
		}
	}
	return out
}

// TestDotI8SIMDMatchesGeneric holds the dispatched row kernel's float64
// outputs — a certified bound, binary16-widened or not, and an
// approximate score — to factors.score over dotI8's sum, bit for bit, and
// each mask bit to !(score < floor), against one to four queries a call.
// First one row at every dimension 1 to 130 (odd ones end on a padded
// pair), with ±L and −128 at the row's edges, whose product stresses the
// int32 pair sums: the kernel benchmark's sq8dot. Then runs of 1 to 64
// rows (every partial last group, and one to eight groups), dots near
// ±2³¹, and row parameters at 0, −0, subnormal, ±MaxFloat32, ±Inf and
// NaN, under queries of ordinary, tiny and huge magnitude (one past 2⁸⁰⁰,
// whose bound is +Inf or NaN), each query under a floor of −Inf, +Inf,
// NaN or one of its own scores. A NaN output need only be NaN: the scans
// ask nothing more of one, and the payload a NaN carries depends on the
// order the hardware takes its operands in. The mask bytes of groups past
// the run are zero. On hosts without AVX2 the dispatch degenerates to the
// portable kernel and the test still passes.
func TestDotI8SIMDMatchesGeneric(t *testing.T) {
	t.Logf("kernel: %s", DotI8ISA())
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	rng := rand.New(rand.NewSource(77))
	for n := 1; n <= 130; n++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		codes, scale, base := QuantizeRows(mat.FromRows([][]float64{row}))
		codes[0], codes[n-1] = -128, -128 // plant extremes at the row's edges
		enc := encoding(codes, scale, base, 1, n)
		pqs := make([]*query, 1+n%4)
		for x := range pqs {
			q := make([]float64, n)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			pqs[x] = new(query)
			f64Codec{}.prepare(pqs[x], q)
			levels := int16(queryLevels(n))
			pqs[x].i16[0], pqs[x].i16[n-1] = -levels, levels
		}
		for x, got := range kernelScores(pqs, enc, 1, n, true) {
			if want := pqs[x].bound(dotI8(pqs[x].i16, codes), scale[0], base[0]); !same(got[0], want) {
				t.Fatalf("dim %d query %d: kernel %v != Go %v", n, x, got[0], want)
			}
		}
	}

	params := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 0x1p-130, -0x1p-127,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	param := func() float32 {
		if rng.Intn(2) == 0 {
			return params[rng.Intn(len(params))]
		}
		return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
	}
	checked, call := 0, 0
	for _, dim := range []int{16, 17, 37, 64, 65, 129, 130, 600} {
		for _, mag := range []float64{1, 1e-300, 1e300} {
			for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 17, 40, 63, 64} {
				codes := make([]int8, n*dim)
				for j := range codes {
					codes[j] = int8(rng.Intn(256) - 128)
				}
				if n%2 == 1 { // with the query at ±L, the largest dot there is: 2³¹ − 2,047 at dim 600
					for j := range codes {
						codes[j] = -128
					}
				}
				scale, base := make([]float32, n), make([]float32, n)
				for r := range scale {
					scale[r], base[r] = param(), param()
				}
				enc := encoding(codes, scale, base, n, dim)
				for nq := 1; nq <= 4; nq++ {
					for _, c := range []Codec{F64, I8, F16} {
						call++
						var l lanes
						want := make([][]float64, nq)
						for x := range nq {
							q := make([]float64, dim)
							for j := range q {
								q[j] = mag * rng.NormFloat64()
							}
							var pq query
							codecs[c].prepare(&pq, q)
							if n%2 == 1 {
								for j := range dim {
									pq.i16[j] = int16(queryLevels(dim) * (n%4 - 2))
								}
							}
							want[x] = make([]float64, n)
							for r := range n {
								want[x][r] = pq.score(dotI8(pq.i16, codes[r*dim:(r+1)*dim]), scale[r], base[r], c != I8)
							}
							floor := [...]float64{math.Inf(-1), math.Inf(1), math.NaN(), want[x][rng.Intn(n)]}[(call+x)%4]
							l.q[x], l.f[x], l.floor[x] = pq.i16, pq.factors, floor
							l.mask[x] = ^uint64(0) // stale bits the kernel must clear
						}
						dotI8Rows(&l, nq, enc.I8, enc.Scale, enc.Base, c != I8)
						for x := range nq {
							if l.mask[x]>>padRows(n) != 0 {
								t.Fatalf("%s dim %d n %d query %d: mask %#x has bits past the run", kinds[0][c], dim, n, x, l.mask[x])
							}
							for r, w := range want[x] {
								if got := l.score[x][r]; !same(got, w) {
									t.Fatalf("%s dim %d n %d query %d/%d row %d (scale %v, base %v, query ×%v): kernel %v (%#x), Go %v (%#x)",
										kinds[0][c], dim, n, x, nq, r, scale[r], base[r], mag, got, math.Float64bits(got), w, math.Float64bits(w))
								}
								if bit := l.mask[x]>>r&1 == 1; bit != !(w < l.floor[x]) {
									t.Fatalf("%s dim %d n %d query %d/%d row %d: mask bit %v for score %v under floor %v",
										kinds[0][c], dim, n, x, nq, r, bit, w, l.floor[x])
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d scores checked", checked)
}

// TestQuantizeRowsSliceInvariance pins the property everything else
// leans on: quantizing a row slice yields exactly the corresponding
// slice of the whole matrix's encoding.
func TestQuantizeRowsSliceInvariance(t *testing.T) {
	data := mixture(300, 6, 5, 71)
	codes, scale, base := QuantizeRows(data)
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 10; trial++ {
		lo := rng.Intn(data.Rows - 1)
		hi := lo + 1 + rng.Intn(data.Rows-lo-1)
		sc, ss, sb := QuantizeRows(data.RowView(lo, hi))
		for i := range ss {
			if ss[i] != scale[lo+i] || sb[i] != base[lo+i] {
				t.Fatalf("slice [%d,%d) row %d params differ", lo, hi, i)
			}
		}
		for j := range sc {
			if sc[j] != codes[lo*data.Cols+j] {
				t.Fatalf("slice [%d,%d) code %d differs", lo, hi, j)
			}
		}
	}
}

// TestI8GroupLayout reads every row's codes back from the groups a table
// holds them in and holds them to QuantizeRows' row-major codes and
// (scale, base), every pad row and every padded pair's second code zero
// and every block's encoding ending on a whole group: for fresh flat and
// inverted builds at an odd and an even dimension, along flat refreshes
// that patch pages copy-on-write, and along inverted refreshes that move
// rows between lists, whose lengths end mid-group.
func TestI8GroupLayout(t *testing.T) {
	for _, dim := range []int{5, 8} {
		rng := rand.New(rand.NewSource(112))
		data := mixture(203, dim, 6, 111)
		cur := data.Clone()
		z := data.Paged()
		flatT, ivT := NewExact(z, 1), BuildIVF(z, IVFConfig{NList: 7, Seed: 3})
		midGroup := 0
		check := func(label string, tab *Table) {
			t.Helper()
			codes, scale, base := QuantizeRows(cur)
			for b := range tab.blocks {
				n, ids := tab.lay.block(b)
				pages := tab.blocks[b].codes
				if n%groupRows != 0 {
					midGroup++
				}
				if last := pages[len(pages)-1]; len(last.Scale)%groupRows != 0 || len(last.I8) != len(last.Scale)*i8Width(dim) {
					t.Fatalf("%s block %d: last page holds %d rows' parameters and %d codes", label, b, len(last.Scale), len(last.I8))
				}
				for j := range padRows(n) {
					pg, r := &pages[j/runRows], j%runRows
					got := pg.i8Row(r, dim)
					if dim%2 == 1 && pg.I8[i8At(r, dim)+dim/2*2*groupRows+1] != 0 {
						t.Fatalf("%s block %d row %d: the padded pair's second code is not zero", label, b, j)
					}
					if j >= n {
						if pg.Scale[r] != 0 || pg.Base[r] != 0 || slices.ContainsFunc(got, func(c int8) bool { return c != 0 }) {
							t.Fatalf("%s block %d: pad row %d holds %v (%v, %v)", label, b, j, got, pg.Scale[r], pg.Base[r])
						}
						continue
					}
					id := j
					if ids != nil {
						id = int(ids[j])
					}
					if !slices.Equal(got, codes[id*dim:(id+1)*dim]) || pg.Scale[r] != scale[id] || pg.Base[r] != base[id] {
						t.Fatalf("%s block %d row %d (candidate %d): %v (%v, %v), QuantizeRows %v (%v, %v)",
							label, b, j, id, got, pg.Scale[r], pg.Base[r], codes[id*dim:(id+1)*dim], scale[id], base[id])
					}
				}
			}
		}
		check(fmt.Sprintf("dim %d flat built", dim), flatT)
		check(fmt.Sprintf("dim %d inverted built", dim), ivT)
		for step := 1; step <= 30; step++ {
			set := map[int]bool{}
			for n := 1 + rng.Intn(5); len(set) < n; {
				set[rng.Intn(data.Rows)] = true
			}
			var dirty []int
			for r := range data.Rows {
				if set[r] {
					dirty = append(dirty, r)
				}
			}
			patch := mat.New(len(dirty), dim)
			for i, r := range dirty {
				for j := range dim {
					patch.Row(i)[j] = 3 * rng.NormFloat64()
				}
				copy(cur.Row(r), patch.Row(i))
			}
			z = z.WithRows(dirty, patch)
			flatT, ivT = flatT.Refresh(z, dirty, nil), ivT.Refresh(z, dirty, nil)
			check(fmt.Sprintf("dim %d flat step %d", dim, step), flatT)
			check(fmt.Sprintf("dim %d inverted step %d", dim, step), ivT)
		}
		if midGroup == 0 {
			t.Fatalf("dim %d: no list ended mid-group", dim)
		}
	}
}

// TestScanSpansInsideGroups scans spans that start and end inside a
// group, and spans ending on the block's last, padded group, through
// every codec and both layouts, one to four queries a call, into top-ks
// that admit every row: each query is offered exactly the span's rows,
// never a pad row or a row outside the span.
func TestScanSpansInsideGroups(t *testing.T) {
	const n, dim, base = 45, 6, 1000
	data := mixture(n, dim, 3, 121)
	queries := mixture(4, dim, 3, 122)
	ex, iv := NewExact(data, 1), BuildIVF(data, IVFConfig{NList: 3, Seed: 1})
	for c := Codec(0); c < NumCodecs; c++ {
		for _, tab := range []*Table{ex.Encode(c, 0), iv.Encode(c, 0)} {
			for b := range tab.blocks {
				n, ids := tab.lay.block(b)
				for _, lo := range []int{0, 1, 3, 7, 8, 9, 15} {
					for _, hi := range []int{lo + 1, lo + 6, 15, 16, 17, 40, n - 1, n} {
						if lo >= hi || hi > n {
							continue
						}
						s := span{lo: lo, hi: hi, ids: ids, base: base, data: tab.data}
						want := make([]int, 0, hi-lo)
						for j := lo; j < hi; j++ {
							want = append(want, s.id(j))
						}
						slices.Sort(want)
						for nq := 1; nq <= 4; nq++ {
							ts := make([]taker, nq)
							for x := range ts {
								ts[x] = taker{pq: new(query), top: core.NewTopK(n)}
								codecs[c].prepare(ts[x].pq, queries.Row(x))
							}
							var l lanes
							codecs[c].scan(&tab.blocks[b], s, ts, &l)
							for x := range ts {
								var got []int
								for _, sc := range ts[x].top.Take() {
									got = append(got, sc.ID)
								}
								slices.Sort(got)
								if !slices.Equal(got, want) {
									t.Fatalf("%s block %d span [%d,%d) of %d, query %d/%d: offered %v, want %v",
										tab.Kind(), b, lo, hi, n, x, nq, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
