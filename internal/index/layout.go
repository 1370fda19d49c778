package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"pane/internal/core"
	"pane/internal/mat"
)

// layout places the candidate rows in blocks and says which blocks a
// query visits. Layouts are immutable; refresh, reseat and rebuild return
// a new one sharing whatever did not change.
type layout interface {
	nblocks() int
	// block returns block b's row count and the local candidate id of
	// each row (nil: row j is candidate j). A block holds no float64 rows
	// of its own: row j is the candidate matrix's row of its id.
	block(b int) (n int, ids []int32)
	// at returns the positions in block b of the listed rows (ascending
	// local ids) that it holds, ascending.
	at(b int, rows []int) []int
	// probe returns the blocks a search for q visits, as TopK entries
	// keyed by block number. nprobe <= 0 means the layout's default.
	probe(q []float64, nprobe int) []core.Scored
	// refresh returns the layout over data when only the dirty rows
	// (ascending local ids) changed; reseat when every row's values moved
	// but memberships are to be kept.
	refresh(data *mat.Paged, dirty []int) layout
	reseat(data *mat.Paged) layout
}

// flat is the one-block layout over n candidates: block row j is
// candidate j and every search visits all of it. It derives nothing from
// the matrix but its row count.
type flat struct{ n int }

var wholeBlock = []core.Scored{{ID: 0}}

func (f flat) nblocks() int                            { return 1 }
func (f flat) block(int) (int, []int32)                { return f.n, nil }
func (f flat) at(_ int, rows []int) []int              { return rows }
func (f flat) probe([]float64, int) []core.Scored      { return wholeBlock }
func (f flat) refresh(data *mat.Paged, _ []int) layout { return flat{data.Rows} }
func (f flat) reseat(data *mat.Paged) layout           { return flat{data.Rows} }

// IVFConfig tunes BuildIVF. Zero values pick defaults scaled to the
// candidate count n.
type IVFConfig struct {
	// NList is the number of coarse clusters (inverted lists). 0 means
	// round(sqrt(n)); values are clamped to [1, n].
	NList int
	// NProbe is the default number of lists scanned per search, clamped
	// to [1, NList]. 0 means max(1, NList/8) — roughly an 8x reduction in
	// scanned candidates at high recall on clustered data.
	NProbe int
	// Seed drives sampling and seeding; builds are deterministic in
	// (data, config).
	Seed int64
	// Threads is the build/search parallelism; <= 1 runs serially.
	Threads int
}

const (
	// kmeansIters is the number of Lloyd iterations on the training sample.
	kmeansIters = 10
	// kmeansSamplePerList caps the k-means training set at this many rows
	// per list; training on a sample and then assigning all candidates in
	// one parallel pass keeps builds cheap on large n.
	kmeansSamplePerList = 64
)

// inverted is the inverted-file layout: candidates are partitioned into
// lists by a k-means coarse quantizer, and a search visits only the
// nprobe lists whose centroids have the largest inner product with the
// query. Probing all lists visits every candidate. A list is its ids
// alone; its rows stay in the candidate matrix.
type inverted struct {
	nprobe   int
	threads  int
	cents    *mat.Dense // nlist x dim centroids
	ids      [][]int32  // per-list candidate ids, ascending
	assigned [][]int32  // per-row home list, on mat.PageRows-row pages of their own like the rows
}

// home returns the list candidate i lives in.
func (iv *inverted) home(i int) int32 { return iv.assigned[i/mat.PageRows][i%mat.PageRows] }

func (iv *inverted) nblocks() int { return len(iv.ids) }

func (iv *inverted) block(b int) (int, []int32) { return len(iv.ids[b]), iv.ids[b] }

func (iv *inverted) at(b int, rows []int) (pos []int) {
	for _, r := range rows {
		if iv.home(r) == int32(b) {
			j, _ := slices.BinarySearch(iv.ids[b], int32(r))
			pos = append(pos, j)
		}
	}
	return pos
}

// trainInverted clusters data (one candidate per row) into an inverted
// file.
func trainInverted(data *mat.Paged, cfg IVFConfig) *inverted {
	n, dim := data.Rows, data.Cols
	nlist := cfg.NList
	if nlist <= 0 {
		nlist = int(math.Round(math.Sqrt(float64(n))))
	}
	if nlist < 1 {
		nlist = 1
	}
	if nlist > n {
		nlist = n
	}
	nprobe := cfg.NProbe
	if nprobe <= 0 {
		nprobe = nlist / 8
	}
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > nlist {
		nprobe = nlist
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	iv := &inverted{nprobe: nprobe, threads: threads, cents: mat.New(nlist, dim)}
	if n == 0 {
		return iv
	}

	// Training sample: all rows when small, otherwise a seeded uniform
	// subset. The permutation also provides distinct initial centroid
	// positions (distinct rows, not necessarily distinct values).
	sample := kmeansSamplePerList * nlist
	rng := rand.New(rand.NewSource(cfg.Seed))
	train := make([]int, 0, sample)
	if n <= sample {
		for i := 0; i < n; i++ {
			train = append(train, i)
		}
	} else {
		train = rng.Perm(n)[:sample]
	}
	for c := 0; c < nlist; c++ {
		copy(iv.cents.Row(c), data.Row(train[c%len(train)]))
	}

	// Lloyd iterations on the sample: parallel nearest-centroid
	// assignment (by L2 distance), serial centroid recomputation so the
	// reduction order — and therefore the result — is fixed.
	assignTrain := make([]int32, len(train))
	for it := 0; it < kmeansIters; it++ {
		iv.assign(data, train, assignTrain)
		counts := make([]int, nlist)
		sums := mat.New(nlist, dim)
		for j, row := range train {
			c := assignTrain[j]
			counts[c]++
			mat.AxpyVec(1, data.Row(row), sums.Row(int(c)))
		}
		for c := 0; c < nlist; c++ {
			if counts[c] == 0 {
				continue // empty cluster keeps its previous centroid
			}
			dst := iv.cents.Row(c)
			src := sums.Row(c)
			inv := 1 / float64(counts[c])
			for d := range dst {
				dst[d] = src[d] * inv
			}
		}
	}
	return iv.rebuild(data)
}

// rebuild assigns every row of data to its nearest centroid and
// materializes the lists' ascending ids, sharing only the centroids with
// iv. The assignment is retained, copied onto pages, so refresh knows
// each row's previous home.
func (iv *inverted) rebuild(data *mat.Paged) *inverted {
	nlist := iv.cents.Rows
	out := &inverted{
		nprobe: iv.nprobe, threads: iv.threads, cents: iv.cents,
		ids: make([][]int32, nlist),
	}
	assigned := make([]int32, data.Rows)
	out.assign(data, nil, assigned)
	for i, c := range assigned {
		out.ids[c] = append(out.ids[c], int32(i))
	}
	out.assigned = make([][]int32, (data.Rows+mat.PageRows-1)/mat.PageRows)
	for k := range out.assigned {
		out.assigned[k] = slices.Clone(assigned[k*mat.PageRows : min((k+1)*mat.PageRows, data.Rows)])
	}
	return out
}

// refresh reassigns each dirty row to its nearest centroid and gives new
// ids to the lists a dirty row left or joined — every other list shares
// its ids with iv, a dirty row that stayed in it included, and the
// assignment every page no row moved on — at O(|dirty| · nlist +
// changed-list ids) cost instead of rebuild's O(n · nlist). A list with
// new ids is how a table tells that its members changed (see Table.kept).
func (iv *inverted) refresh(data *mat.Paged, dirty []int) layout {
	if len(dirty) == 0 {
		return iv
	}
	for j, r := range dirty {
		if r < 0 || r >= data.Rows || (j > 0 && dirty[j-1] >= r) {
			panic(fmt.Sprintf("index: inverted refresh dirty rows must be ascending ids in [0,%d)", data.Rows))
		}
	}
	newAssign := make([]int32, len(dirty))
	iv.assign(data, dirty, newAssign)

	out := *iv
	out.ids, out.assigned = slices.Clone(iv.ids), slices.Clone(iv.assigned)
	added := make(map[int32][]int32) // per changed list, the dirty members it holds, ascending
	for j, r := range dirty {
		if old := iv.home(r); old != newAssign[j] {
			k := r / mat.PageRows
			if &out.assigned[k][0] == &iv.assigned[k][0] {
				out.assigned[k] = slices.Clone(iv.assigned[k])
			}
			out.assigned[k][r%mat.PageRows] = newAssign[j]
			added[old], added[newAssign[j]] = added[old], added[newAssign[j]] // both lists change
		}
	}
	for j, r := range dirty {
		if gained, ok := added[newAssign[j]]; ok {
			added[newAssign[j]] = append(gained, int32(r))
		}
	}
	for l, gained := range added {
		// Survivors (clean old members) merged in id order with the dirty
		// rows now assigned here.
		ids := make([]int32, 0, len(iv.ids[l])+len(gained))
		g, d := 0, 0
		for _, id := range iv.ids[l] {
			for ; g < len(gained) && gained[g] < id; g++ {
				ids = append(ids, gained[g])
			}
			for d < len(dirty) && dirty[d] < int(id) {
				d++
			}
			if d == len(dirty) || dirty[d] != int(id) {
				ids = append(ids, id)
			}
		}
		out.ids[l] = append(ids, gained[g:]...)
	}
	return &out
}

// reseat keeps the coarse quantizer, the lists and the per-row
// assignment: a list holds no rows, so there is nothing to redo.
func (iv *inverted) reseat(*mat.Paged) layout { return iv }

// assign writes the nearest centroid (squared L2, ties to the lowest
// centroid index) of each listed row into out. rows == nil means all rows
// of data, with out[i] for row i; otherwise out[j] corresponds to
// rows[j]. Runs in parallel blocks over the rows.
func (iv *inverted) assign(data *mat.Paged, rows []int, out []int32) {
	nlist := iv.cents.Rows
	// Precompute |c|²; argmin over c of |x−c|² = argmin (|c|² − 2·x·c).
	cn := make([]float64, nlist)
	for c := 0; c < nlist; c++ {
		r := iv.cents.Row(c)
		cn[c] = mat.Dot(r, r)
	}
	mat.ParallelRanges(len(out), mat.RowWorkers(len(out), iv.threads), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := j
			if rows != nil {
				row = rows[j]
			}
			x := data.Row(row)
			best, bestScore := int32(0), math.Inf(1)
			for c := 0; c < nlist; c++ {
				s := cn[c] - 2*mat.Dot(x, iv.cents.Row(c))
				if s < bestScore {
					best, bestScore = int32(c), s
				}
			}
			out[j] = best
		}
	})
}

// probe ranks every centroid by inner product with q — the standard probe
// order for inner-product metrics — and returns the nprobe best (above
// nlist clamps).
func (iv *inverted) probe(q []float64, nprobe int) []core.Scored {
	if nprobe <= 0 {
		nprobe = iv.nprobe
	}
	if nprobe > iv.cents.Rows {
		nprobe = iv.cents.Rows
	}
	lt := core.GetTopK(nprobe)
	for c := 0; c < iv.cents.Rows; c++ {
		lt.Offer(c, mat.Dot(q, iv.cents.Row(c)))
	}
	lists := lt.Take()
	core.PutTopK(lt)
	return lists
}
