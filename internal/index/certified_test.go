package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pane/internal/core"
	"pane/internal/mat"
)

// boundRows returns rows of dimension dim of every shape the certified
// codecs' bounds must hold on, reps of each.
func boundRows(rng *rand.Rand, dim, reps int) [][]float64 {
	var rows [][]float64
	add := func(f func(j int) float64) {
		r := make([]float64, dim)
		for j := range r {
			r[j] = f(j)
		}
		rows = append(rows, r)
	}
	for range reps {
		scale := math.Pow(10, 6*rng.Float64()-3)
		v, w := scale*rng.NormFloat64(), scale*rng.NormFloat64()
		add(func(int) float64 { return scale * rng.NormFloat64() })
		// Constant (scale 0, base float32(v)), then two-valued (every code
		// -128 or 127).
		add(func(int) float64 { return v })
		add(func(int) float64 {
			if rng.Intn(2) == 0 {
				return v
			}
			return w
		})
		// A range near 255·2⁻¹²⁶ puts the scale at float32's smallest
		// normal, half the time below it; a range under 255·2⁻¹⁵⁰ makes it
		// 0 although the row is not constant.
		off := []float64{0, 0x1p-120, -0x1p-118, 1e-30, 1}[rng.Intn(5)]
		r := 255 * 0x1p-126 * (0.25 + 2*rng.Float64())
		add(func(int) float64 { return off + r*rng.Float64() })
		tiny := 255 * 0x1p-150 * rng.Float64()
		add(func(int) float64 { return off + tiny*rng.Float64() })
		big := 1e30 * rng.Float64()
		add(func(int) float64 { return big * rng.NormFloat64() })
		add(func(int) float64 { return big + scale*rng.NormFloat64() })
		hot := rng.Intn(dim)
		// One-hot: every other code sits at one level.
		add(func(j int) float64 {
			if j == hot {
				return v
			}
			return 0
		})
		// Values midway between two levels, so rounding to a level is a
		// tie in real arithmetic.
		step := scale / 255
		add(func(j int) float64 { return v + (float64(rng.Intn(255))+0.5)*step })
		// A large offset under small noise: the base dominates, so the
		// binary16 rounding (2⁻¹¹ of the offset) dwarfs the int8 step.
		shift := math.Copysign(6e4*rng.Float64(), v)
		add(func(int) float64 { return shift + 1e-3*scale*rng.NormFloat64() })
		// Subnormal halves: every value under 2⁻¹⁴.
		add(func(int) float64 { return 0x1p-14 * (2*rng.Float64() - 1) })
	}
	return rows
}

// hostileRows returns rows of dimension dim that the bounds do not cover:
// values that round to ±Inf halves (65520 and up), ±Inf itself, and NaN
// first or elsewhere. overflowsHalf says which must certify nothing in a
// binary16 scan.
func hostileRows(rng *rand.Rand, dim int) [][]float64 {
	var rows [][]float64
	for _, bad := range []float64{65520, -65520, 7e4, 1e9, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, at := range []int{0, rng.Intn(dim)} {
			r := make([]float64, dim)
			for j := range r {
				r[j] = rng.NormFloat64()
			}
			r[at] = bad
			rows = append(rows, r)
		}
	}
	return rows
}

// overflowsHalf reports whether a row holds a value that does not round
// to a finite half, or NaN in its first element (which makes the int8
// parameters NaN): a binary16 scan must certify nothing for it.
func overflowsHalf(x []float64) bool {
	for _, v := range x {
		if math.Abs(v) >= 65520 {
			return true
		}
	}
	return math.IsNaN(x[0])
}

// certScore is the score a certified codec re-scores a row with: mat.Dot
// over the float64 row, or dotFP16 over its halves.
func certScore(c Codec, q, x []float64) float64 {
	if c == F64 {
		return mat.Dot(q, x)
	}
	h := f16Codec{}.alloc(1, len(x))
	f16Codec{}.encodeRow(h, 0, x)
	return dotFP16(q, h.F16)
}

// boundQueries returns queries of dimension dim, reps of each shape.
func boundQueries(rng *rand.Rand, dim, reps int) [][]float64 {
	var qs [][]float64
	add := func(f func(j int) float64) {
		q := make([]float64, dim)
		for j := range q {
			q[j] = f(j)
		}
		qs = append(qs, q)
	}
	add(func(int) float64 { return 0 })
	for range reps {
		scale := math.Pow(10, 6*rng.Float64()-3)
		add(func(int) float64 { return scale * rng.NormFloat64() })
		hot := rng.Intn(dim)
		add(func(j int) float64 {
			if j == hot {
				return scale
			}
			return 0
		})
		// One large coordinate and the rest under half a quantization step:
		// those quantize to 0 and all their weight is in φ, the query's
		// quantization error, which only the s·f term of the bound covers.
		add(func(j int) float64 {
			if j == hot {
				return scale
			}
			return scale / 254 * (2*rng.Float64() - 1)
		})
	}
	return qs
}

// TestCertifiedBoundHolds: for every row and query shape above, at several
// dimensions up to the longest the slack covers, the float64 codec's bound
// is finite and no less than the score mat.Dot returns, and the binary16
// codec's widened bound no less than the score dotFP16 returns over the
// row's halves. Each query also meets rows aligned with its sign pattern,
// the rows that put φ·c at its worst. Hostile rows certify nothing: a row
// holding a value that rounds to a ±Inf half, or NaN first, is flagged by
// overflows, a row holding ±Inf gets a non-finite float64 bound, and a
// row with NaN elsewhere scores NaN, which no full top-k admits. A longer
// query certifies nothing.
func TestCertifiedBoundHolds(t *testing.T) {
	for _, c := range []Codec{F64, F16} {
		rng := rand.New(rand.NewSource(29))
		pairs, hostile := 0, 0
		for _, dc := range []struct{ dim, reps int }{
			{1, 130}, {2, 130}, {7, 130}, {13, 130}, {16, 130}, {64, 80}, {100, 60}, {130, 50}, {maxBoundDim, 3},
		} {
			dim := dc.dim
			rows := boundRows(rng, dim, dc.reps)
			bad := hostileRows(rng, dim)
			qs := boundQueries(rng, dim, dc.reps)
			enc := i8Codec{}
			codes := enc.alloc(len(rows)+len(bad)+1, dim)
			for i, r := range append(rows, bad...) {
				enc.encodeRow(codes, i, r)
			}
			aligned := make([]float64, dim)
			for _, q := range qs {
				var pq query
				codecs[c].prepare(&pq, q)
				for j, v := range q {
					aligned[j] = math.Copysign(0.5+rng.Float64(), v)
				}
				all := append(append(rows[:len(rows):len(rows)], bad...), aligned)
				enc.encodeRow(codes, len(all)-1, aligned)
				for i, x := range all {
					scale, base := codes.Scale[i], codes.Base[i]
					ub := pq.bound(dotI8(pq.i8, codes.I8[i*dim:(i+1)*dim]), scale, base)
					score := certScore(c, q, x)
					flagged := c == F16 && overflows(scale, base)
					if i >= len(rows) && i < len(all)-1 {
						hostile++
						if c == F16 && overflowsHalf(x) && !flagged {
							t.Fatalf("%s dim %d: row %v may round to an Inf half but is certified (scale %v, base %v)", kinds[0][c], dim, x, scale, base)
						}
						if flagged || ub-ub != 0 || math.IsNaN(score) {
							continue
						}
					}
					if flagged { // certifies nothing, whatever the score
						continue
					}
					if ub-ub != 0 || ub < score {
						t.Fatalf("%s dim %d: bound %v under score %v (scale %v, base %v, row %v, query %v)",
							kinds[0][c], dim, ub, score, scale, base, x, q)
					}
					pairs++
				}
			}
		}
		if pairs < 2_000_000 || hostile == 0 {
			t.Fatalf("%s: only %d pairs checked", kinds[0][c], pairs)
		}
		t.Logf("%s: %d pairs certified, %d hostile", kinds[0][c], pairs, hostile)
	}
	var pq query
	long := make([]float64, maxBoundDim+1)
	long[0] = 1
	f64Codec{}.prepare(&pq, long)
	if ub := pq.bound(0, 1, 0); !math.IsInf(ub, 1) {
		t.Fatalf("a query longer than %d got the finite bound %v", maxBoundDim, ub)
	}
}

// fullScan is a certified cell's answer as a full scan gives it: every
// row of every block the layout visits, scored with mat.Dot over the
// float64 row, or dotFP16 over its halves. It is the oracle the certified
// scan must equal, ids and score bits.
func fullScan(tables []*Table, q []float64, k int, opt Options) []core.Scored {
	top := core.NewTopK(k)
	for _, t := range tables {
		for _, v := range t.lay.probe(q, opt.NProbe) {
			rows, ids := t.lay.block(v.ID)
			for j := range rows.Rows {
				id := t.base + j
				if ids != nil {
					id = t.base + int(ids[j])
				}
				if opt.Skip == nil || !opt.Skip(id) {
					top.Offer(id, certScore(t.codec, q, rows.Row(j)))
				}
			}
		}
	}
	return top.Take()
}

// sameBits reports whether two answers hold the same ids with the same
// score bits.
func sameBits(a, b []core.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestCertifiedScanEqualsFullScan holds the certified cells — float64 and
// binary16, flat and inverted, unsharded and in two shards — to the full
// scan along a 200-step refresh chain, singly and in batches, at
// dimensions the vector kernels take (16, and 64, the serving width) and
// one they do not. The binary16 cells refresh behind their float64 cell
// and scan its int8 pages, as the engine's do. The matrix carries
// duplicate rows, zero rows and constant rows, so scores tie exactly and
// the tie order — a bound or score equal to the top-k floor, within and
// across the kernel's four-row groups — is on trial too. Midway, hostile
// rows stand in the matrix for ten steps: two rows holding a value that
// rounds to a ±Inf half each open the binary16 block holding them, which
// then certifies nothing, while subnormal halves keep their block
// certified. (NaN stays out: no order holds among NaN scores, so no answer
// is defined; TestCertifiedBoundHolds has NaN rows certify nothing.)
func TestCertifiedScanEqualsFullScan(t *testing.T) {
	for _, dim := range []int{16, 13, 64} {
		const rows, cut, steps, hostileAt = 600, 333, 200, 95
		rng := rand.New(rand.NewSource(int64(dim)))
		data := mixture(rows, dim, 6, int64(dim)+1)
		plant := func(r int) { // a duplicate, a zero row or a constant row
			switch src := rng.Intn(rows); rng.Intn(3) {
			case 0:
				copy(data.Row(r), data.Row(src))
			case 1:
				clear(data.Row(r))
			default:
				v := data.At(src, 0)
				for j := range data.Row(r) {
					data.Set(r, j, v)
				}
			}
		}
		for r := 0; r < rows; r += 5 {
			plant(r)
		}
		// The hostile rows: a -Inf half and a +Inf one, in different
		// shards, and subnormal halves. Row 400 scores +Inf in binary16
		// against a query positive throughout, but far below every other row
		// in float64, so only certifying nothing finds it.
		hostile := []int{7, 400, 41}
		spoil := func(r int) {
			row := data.Row(r)
			switch r {
			case 7:
				row[dim/2] = -65520
			case 400:
				for j := range row {
					row[j] = -6e4
				}
				row[0] = 65520
			default:
				for j := range row {
					row[j] = 0x1p-15 * rng.NormFloat64()
				}
			}
		}
		ivCfg := IVFConfig{NList: 7, NProbe: 3, Seed: 4}
		build := func(lo, hi int) [4]*Table {
			block := data.RowSlice(lo, hi).Clone()
			ex, iv := NewExact(block, 1), BuildIVF(block, ivCfg)
			return [4]*Table{ex.Shift(lo), iv.Shift(lo), ex.Encode(F16, 0).Shift(lo), iv.Encode(F16, 0).Shift(lo)}
		}
		sets := [][][4]*Table{{build(0, rows)}, {build(0, cut), build(cut, rows)}}
		zs := [][]*mat.Paged{{sets[0][0][0].data}, {sets[1][0][0].data, sets[1][1][0].data}}
		bounds := [][]int{{0, rows}, {0, cut, rows}}

		var scored, reranked [NumCodecs]int64
		for step := 0; step <= steps; step++ {
			if step > 0 {
				dirty := map[int]bool{}
				for n := 1 + rng.Intn(6); len(dirty) < n; {
					r := rng.Intn(rows)
					dirty[r] = true
					for j := range data.Row(r) {
						data.Set(r, j, rng.NormFloat64())
					}
					if rng.Intn(3) == 0 {
						plant(r)
					}
				}
				for _, r := range hostile {
					switch {
					case step == hostileAt:
						spoil(r)
					case step == hostileAt+10:
						copy(data.Row(r), data.Row(r+1))
					case step < hostileAt || step > hostileAt+10 || !dirty[r]:
						continue
					default: // a step between rewrote it: spoil it again
						spoil(r)
					}
					dirty[r] = true
				}
				for si, set := range sets {
					for s := range set {
						lo, hi := bounds[si][s], bounds[si][s+1]
						var local []int
						for r := lo; r < hi; r++ {
							if dirty[r] {
								local = append(local, r-lo)
							}
						}
						if local == nil {
							continue
						}
						patch := mat.New(len(local), dim)
						for j, r := range local {
							copy(patch.Row(j), data.Row(lo+r))
						}
						zs[si][s] = zs[si][s].WithRows(local, patch)
						ex, iv := set[s][0].Refresh(zs[si][s], local, nil), set[s][1].Refresh(zs[si][s], local, nil)
						set[s] = [4]*Table{ex, iv, set[s][2].Refresh(zs[si][s], local, ex), set[s][3].Refresh(zs[si][s], local, iv)}
					}
				}
			}
			if step%10 != 0 && step != 1 {
				continue
			}
			spoiled := step >= hostileAt && step < hostileAt+10
			for _, set := range sets {
				for _, cell := range []int{2, 3} {
					open := 0
					for s := range set {
						for _, b := range set[s][cell].blocks {
							open += b.open
						}
					}
					if want := map[bool]int{true: 2}[spoiled]; open != want {
						t.Fatalf("dim %d step %d %s: %d open rows, want %d", dim, step, set[0][cell].Kind(), open, want)
					}
				}
			}
			qs := queries(dim, 5, int64(step))
			// A query that is a row, duplicated or not, and the zero query,
			// where every score ties at 0 — but not beside an Inf half,
			// which a zero coordinate turns into a NaN score.
			if !spoiled {
				qs[0] = data.Row(rng.Intn(rows))
			} else {
				for j := range qs[0] {
					qs[0][j] = 1
				}
				qs[0][0] = 1e-3
			}
			if step%20 == 0 && !spoiled {
				clear(qs[1])
			}
			batch := make([]BatchQuery, len(qs))
			for i, q := range qs {
				self := rng.Intn(rows)
				batch[i] = BatchQuery{Q: q, K: []int{1, 5, 40}[i%3], Opt: Options{NProbe: i % 3}}
				if i%2 == 1 {
					batch[i].Opt.Skip = func(id int) bool { return id == self }
				}
			}
			for _, set := range sets {
				for cell := range 4 {
					tables := make([]*Table, len(set))
					for s := range set {
						tables[s] = set[s][cell]
					}
					label := fmt.Sprintf("dim %d step %d shards %d %s", dim, step, len(set), tables[0].Kind())
					together := make([][]core.Scored, len(batch))
					st := SearchBatch(tables, batch, together)
					if c := tables[0].codec; !spoiled {
						scored[c], reranked[c] = scored[c]+st.RowsScored, reranked[c]+st.Reranked
					}
					for i, bq := range batch {
						want := fullScan(tables, bq.Q, bq.K, bq.Opt)
						var alone [1][]core.Scored
						SearchBatch(tables, batch[i:i+1], alone[:])
						if !sameBits(alone[0], want) || !sameBits(together[i], want) {
							t.Fatalf("%s query %d:\nalone     %v\nin batch  %v\nfull scan %v", label, i, alone[0], together[i], want)
						}
					}
				}
			}
		}
		// The bounds must actually rule rows out, or the test proves
		// nothing about the pruning path.
		for _, c := range []Codec{F64, F16} {
			if reranked[c]*4 > scored[c] {
				t.Fatalf("dim %d %s: %d of %d scanned pairs re-scored", dim, kinds[0][c], reranked[c], scored[c])
			}
			t.Logf("dim %d %s: %d of %d scanned pairs re-scored", dim, kinds[0][c], reranked[c], scored[c])
		}
	}
}

// TestDotI8RowsMatchesDotI8 drives the row-block int8 kernel over every
// dimension 1..80 and 128 and 130 (16 and up take the vector kernel, a
// dimension off a multiple of 16 its masked tail step), row counts 0..9
// and 129 (a count off a multiple of 4 leaves rows to the one-row path,
// the one a lone dotI8 call takes), and shifting
// offsets of the query, the rows and the output, with the extreme codes
// planted at both ends of every vector: every sum must be the one
// dotI8Generic returns.
func TestDotI8RowsMatchesDotI8(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const maxOff = 4
	dims := []int{128, 130}
	for d := 1; d <= 80; d++ {
		dims = append(dims, d)
	}
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 129}
	for _, dim := range dims {
		for _, n := range counts {
			off := rng.Intn(maxOff)
			qback := make([]int8, dim+maxOff)
			back := make([]int8, n*dim+maxOff)
			for _, v := range [][]int8{qback, back} {
				for j := range v {
					v[j] = int8(rng.Intn(256) - 128)
				}
			}
			q := qback[off : off+dim]
			rows := back[(off+1)%maxOff:][:n*dim]
			q[0], q[dim-1] = -128, 127
			for r := range n {
				rows[r*dim], rows[(r+1)*dim-1] = int8(127-255*(r%2)), -128
			}
			out := make([]int32, n+maxOff)[(off+2)%maxOff:][:n]
			dotI8Rows(q, rows, out)
			for r, got := range out {
				if want := dotI8Generic(q, rows[r*dim:(r+1)*dim]); got != want {
					t.Fatalf("dotI8Rows(dim=%d, n=%d, off=%d) row %d = %d, generic %d", dim, n, off, r, got, want)
				}
			}
		}
	}
}
