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
	// block returns block b's float64 rows and the local candidate id of
	// each (nil: row j is candidate j).
	block(b int) (rows *mat.Paged, ids []int32)
	// probe returns the blocks a search for q visits, as TopK entries
	// keyed by block number. nprobe <= 0 means the layout's default.
	probe(q []float64, nprobe int) []core.Scored
	// refresh returns the layout over data when only the dirty rows
	// (ascending local ids) changed; reseat when every row's values moved
	// but memberships are to be kept; rebuild from scratch, keeping only
	// what was trained.
	refresh(data *mat.Paged, dirty []int) layout
	reseat(data *mat.Paged) layout
	rebuild(data *mat.Paged) layout
}

// flat is the one-block layout: block row j is candidate j and every
// search visits all of it. It derives nothing from the matrix, so each
// refresh is a re-wrap.
type flat struct{ data *mat.Paged }

var wholeBlock = []core.Scored{{ID: 0}}

func (f flat) nblocks() int                            { return 1 }
func (f flat) block(int) (*mat.Paged, []int32)         { return f.data, nil }
func (f flat) probe([]float64, int) []core.Scored      { return wholeBlock }
func (f flat) refresh(data *mat.Paged, _ []int) layout { return flat{data} }
func (f flat) reseat(data *mat.Paged) layout           { return flat{data} }
func (f flat) rebuild(data *mat.Paged) layout          { return flat{data} }

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
// query. Probing all lists visits every candidate.
type inverted struct {
	nprobe   int
	threads  int
	cents    *mat.Dense   // nlist x dim centroids
	ids      [][]int32    // per-list candidate ids, ascending
	vecs     []*mat.Paged // per-list gathered candidate vectors (row j = ids[j]), one allocation each
	assigned [][]int32    // per-row home list, on mat.PageRows-row pages like the rows
}

// home returns the list candidate i lives in.
func (iv *inverted) home(i int) int32 { return iv.assigned[i/mat.PageRows][i%mat.PageRows] }

func (iv *inverted) nblocks() int { return len(iv.vecs) }

func (iv *inverted) block(b int) (*mat.Paged, []int32) { return iv.vecs[b], iv.ids[b] }

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
	return iv.rebuild(data).(*inverted)
}

// rebuild assigns every row of data to its nearest centroid and
// materializes the lists — per-list ascending ids plus contiguous vector
// copies for cache-friendly scans — sharing only the centroids with iv.
// The assignment is retained so refresh knows each row's previous home.
func (iv *inverted) rebuild(data *mat.Paged) layout {
	nlist := iv.cents.Rows
	out := &inverted{
		nprobe: iv.nprobe, threads: iv.threads, cents: iv.cents,
		ids:  make([][]int32, nlist),
		vecs: make([]*mat.Paged, nlist),
	}
	assigned := make([]int32, data.Rows)
	out.assign(data, nil, assigned)
	for i, c := range assigned {
		out.ids[c] = append(out.ids[c], int32(i))
	}
	for c := range out.ids {
		out.vecs[c] = gather(data, out.ids[c], out.ids[c], nil, nil)
	}
	out.assigned = make([][]int32, (data.Rows+mat.PageRows-1)/mat.PageRows)
	for k := range out.assigned {
		out.assigned[k] = assigned[k*mat.PageRows : min((k+1)*mat.PageRows, data.Rows)]
	}
	return out
}

// refresh reassigns each dirty row to its nearest centroid and rebuilds
// only the lists a dirty row left, joined, or stayed in — every untouched
// list shares its id and vector storage with iv, and the assignment every
// page no dirty row is on — at O(|dirty| · nlist + affected-list rows)
// cost instead of rebuild's O(n · nlist).
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
	out.ids, out.vecs, out.assigned = slices.Clone(iv.ids), slices.Clone(iv.vecs), slices.Clone(iv.assigned)
	added := make(map[int32][]int32) // per changed list, the dirty members it gains, ascending
	for j, r := range dirty {
		k := r / mat.PageRows
		if &out.assigned[k][0] == &iv.assigned[k][0] {
			out.assigned[k] = slices.Clone(iv.assigned[k])
		}
		out.assigned[k][r%mat.PageRows] = newAssign[j]
		if old := iv.home(r); added[old] == nil {
			added[old] = nil // a list a dirty row leaves changes too
		}
		added[newAssign[j]] = append(added[newAssign[j]], int32(r))
	}
	for l, gained := range added {
		// Survivors (clean old members) merged in id order with the dirty
		// rows now assigned here, which take their vectors from data — so
		// one that stayed in its list still gets its new values.
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
		out.vecs[l] = gather(data, out.ids[l], gained, iv.ids[l], iv.vecs[l])
	}
	return &out
}

// reseat keeps the coarse quantizer, the per-list id slices and the
// per-row assignment, and rebuilds only the per-list vector copies.
func (iv *inverted) reseat(data *mat.Paged) layout {
	out := *iv
	out.vecs = make([]*mat.Paged, len(iv.vecs))
	for l, ids := range iv.ids {
		out.vecs[l] = gather(data, ids, ids, nil, nil)
	}
	return &out
}

// gather returns the rows of the list with members ids as one contiguous
// block, paged without a second copy. The members in fresh (ascending)
// take their rows from data; every other member was in the list before,
// among oldIDs, and its row is carried over from old — a sequential walk
// of one block instead of a cache miss per row of data.
func gather(data *mat.Paged, ids, fresh, oldIDs []int32, old *mat.Paged) *mat.Paged {
	vecs := mat.New(len(ids), data.Cols)
	i, f := 0, 0
	for j, id := range ids {
		if f < len(fresh) && fresh[f] == id {
			copy(vecs.Row(j), data.Row(int(id)))
			f++
			continue
		}
		for oldIDs[i] != id {
			i++
		}
		copy(vecs.Row(j), old.Row(i))
	}
	return mat.Page(vecs)
}

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
