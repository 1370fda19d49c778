package index

import (
	"fmt"

	"pane/internal/core"
	"pane/internal/mat"
)

// Table is the one index type: a layout (which blocks of candidate rows a
// query visits) times a codec (how a block stores and scores its rows).
// Every Kind is a cell of that grid. A Table is immutable after
// construction and safe for concurrent searches; Refresh and Reseat
// return the next generation and leave the receiver intact.
type Table struct {
	data    *mat.Paged // candidates by local id, shared with the caller
	lay     layout
	codec   Codec
	blocks  []block // one per layout block, encoded by codec
	base    int     // global id of local candidate 0 (see Shift)
	rerank  int     // survivor multiplier of a codec whose scores are approximate, else 0
	threads int
	work    Work
}

// Work is what producing a table cost: rows passed through the codec, and
// bytes written into storage it does not share with its parent (a cell's
// codes and page slices; the float64 rows are the caller's under every
// layout, and a cell that adopts another's encoding writes nothing).
// Functions of the input alone.
type Work struct {
	RowsEncoded, BytesCopied int64
}

var kinds = [2][NumCodecs]string{
	{KindExact, KindSQ8, KindFP16},
	{KindIVF, KindIVFSQ, KindIVFFP16},
}

// newCell is the (lay, c) cell over data with its settings and no blocks
// yet: over encodes them, or the caller adopts an existing encoding.
func newCell(data *mat.Paged, lay layout, c Codec, rerank, threads int) *Table {
	if codecs[c].final() {
		rerank = 0
	} else if rerank <= 0 {
		rerank = DefaultRerank
	}
	if threads < 1 {
		threads = 1
	}
	return &Table{data: data, lay: lay, codec: c, rerank: rerank, threads: threads}
}

// Candidates is a candidate matrix the constructors take: a *mat.Paged is
// shared (it is immutable), a *mat.Dense copied onto pages of its own.
type Candidates interface{ Paged() *mat.Paged }

// newFlat is the flat cell of codec c over data.
func newFlat(data Candidates, c Codec, rerank, threads int) *Table {
	pd := data.Paged()
	return newCell(pd, flat{pd.Rows}, c, rerank, threads).over(pd, flat{pd.Rows}, nil, nil, false)
}

// NewExact is the flat float64 cell over data, one candidate per row (see
// Candidates). Its rows are quantized once for the scan's score bound
// (see f64Codec). threads is the search fan-out; values <= 1 scan
// serially.
func NewExact(data Candidates, threads int) *Table { return newFlat(data, F64, 0, threads) }

// NewSQ8 is the flat int8 cell: data is kept for the exact re-rank and
// its rows are quantized once (NewExact(data).Encode(I8, rerank) shares
// the exact cell's quantization instead). rerank <= 0 means DefaultRerank.
func NewSQ8(data Candidates, rerank, threads int) *Table {
	return newFlat(data, I8, rerank, threads)
}

// NewFP16 is the flat binary16 cell. Standing alone it quantizes its rows
// too, for the int8 codes its scan bounds scores with;
// NewExact(data).Encode(F16, 0) shares the exact cell's instead.
func NewFP16(data Candidates, threads int) *Table { return newFlat(data, F16, 0, threads) }

// BuildIVF is the inverted float64 cell: data is clustered into an
// inverted file (see IVFConfig) whose lists hold candidate ids, not rows.
// Builds with the same data and config are bit-for-bit reproducible.
func BuildIVF(data Candidates, cfg IVFConfig) *Table {
	pd := data.Paged()
	lay := trainInverted(pd, cfg)
	return newCell(pd, lay, F64, 0, cfg.Threads).over(pd, lay, nil, nil, false)
}

// NewIVFSQ is the inverted int8 cell over iv's inverted file, which it
// shares with its lists' encoding: it costs no k-means, no copy of the
// lists and no encoding pass. data must be the matrix iv was built from.
// rerank <= 0 means DefaultRerank.
func NewIVFSQ(iv *Table, data *mat.Dense, rerank int) *Table {
	iv.checkShape(data.Rows, data.Cols)
	return iv.Encode(I8, rerank)
}

// NewIVFFP16 is the inverted binary16 cell over iv's inverted file, which
// it shares with its lists' int8 encoding: a second codec over one
// BuildIVF costs one encoding pass, not a second k-means, a second copy of
// the lists or a second int8 encoding.
func NewIVFFP16(iv *Table, data *mat.Dense) *Table {
	iv.checkShape(data.Rows, data.Cols)
	return iv.Encode(F16, 0)
}

// Encode returns the cell of t's layout and candidates under codec c,
// sharing both with t, and sharing t's blocks too when c holds the
// encoding t holds (see encodedAs): a layout's int8 cell is its float64
// cell's encoding, never a second copy of it, and its binary16 cell
// encodes its halves only and scans t's int8 pages. rerank <= 0 means
// DefaultRerank where c re-ranks.
func (t *Table) Encode(c Codec, rerank int) *Table {
	cell := newCell(t.data, t.lay, c, rerank, t.threads)
	if encodedAs[c] == encodedAs[t.codec] {
		cell.blocks = t.blocks
	} else {
		cell = cell.over(t.data, t.lay, t, nil, false)
	}
	return cell.Shift(t.base)
}

// Shift returns idx with its candidate ids [0, Len()) re-based to global
// ids [base, base+Len()): results carry global ids and Options.Skip
// receives them. base 0 returns idx unchanged.
func Shift(idx Index, base int) Index {
	if base == 0 {
		return idx
	}
	return idx.(*Table).Shift(base)
}

// Shift is the package-level Shift on the concrete type: a shallow copy
// sharing every block, with the id base moved.
func (t *Table) Shift(base int) *Table {
	if base == 0 {
		return t
	}
	out := *t
	out.base += base
	return &out
}

// Len returns the candidate count.
func (t *Table) Len() int { return t.data.Rows }

// Dim returns the vector dimension.
func (t *Table) Dim() int { return t.data.Cols }

// Kind names the cell: one of the six Kind constants.
func (t *Table) Kind() string {
	l := 0
	if t.inverted() != nil {
		l = 1
	}
	return kinds[l][t.codec]
}

// NList returns the number of inverted lists, 0 for a flat table.
func (t *Table) NList() int {
	if iv := t.inverted(); iv != nil {
		return iv.cents.Rows
	}
	return 0
}

// DefaultNProbe returns the build-time default probe count, 0 for a flat
// table.
func (t *Table) DefaultNProbe() int {
	if iv := t.inverted(); iv != nil {
		return iv.nprobe
	}
	return 0
}

// Rerank returns the build-time survivor multiplier, 0 when the codec's
// scores are final.
func (t *Table) Rerank() int { return t.rerank }

// Work reports what producing t encoded and copied.
func (t *Table) Work() Work { return t.work }

// String summarizes the structure for logs.
func (t *Table) String() string {
	return fmt.Sprintf("%s(n=%d dim=%d nlist=%d nprobe=%d rerank=%d)",
		t.Kind(), t.Len(), t.Dim(), t.NList(), t.DefaultNProbe(), t.rerank)
}

func (t *Table) inverted() *inverted {
	iv, _ := t.lay.(*inverted)
	return iv
}

func (t *Table) checkShape(rows, cols int) {
	if rows != t.data.Rows || cols != t.data.Cols {
		panic(fmt.Sprintf("index: %s data %dx%d does not match index n=%d dim=%d",
			t.Kind(), rows, cols, t.data.Rows, t.data.Cols))
	}
}

// Refresh returns the next generation of t over data, in which only the
// listed dirty rows (local ids; ascending for an inverted file) differ
// from the rows t holds; the caller contracts that every other row is
// value-identical (data is typically t's matrix WithRows). Only O(Δ) state is touched and the rest
// is shared with t: an inverted file moves the dirty rows that changed
// lists against its frozen coarse quantizer; a block no dirty row is in is
// shared, one whose dirty rows all stayed — every flat block — copies its
// page slice and the code pages a dirty row is on, and a list a dirty row
// left or joined is re-made, carrying its survivors' codes over. Only
// dirty rows are encoded. The result is bit-identical to a fresh build
// over data (for an inverted file, to one against the same quantizer).
//
// lead, when non-nil, is the already refreshed float64 cell of t's layout
// over the same data: t adopts its layout instead of refreshing a copy,
// so every codec over one BuildIVF moves each dirty row once and keeps
// sharing one set of list blocks, an int8 cell adopts lead's blocks
// whole, their encoding included, and a binary16 cell re-encodes its
// halves only and scans lead's int8 pages (see Encode). Without a lead a
// binary16 cell refreshes int8 pages of its own.
func (t *Table) Refresh(data *mat.Paged, dirty []int, lead *Table) *Table {
	t.checkShape(data.Rows, data.Cols)
	if lead != nil {
		if encodedAs[t.codec] == encodedAs[lead.codec] {
			return t.adopt(lead)
		}
		return t.over(data, lead.lay, lead, dirty, true)
	}
	return t.over(data, t.lay.refresh(data, dirty), nil, dirty, true)
}

// Reseat returns the next generation of t over data when every row's
// values moved but no row should change lists: the coarse quantizer, the
// list memberships and the per-row assignment are kept and every block is
// re-encoded. It is the right refresh after a low-rank correction that
// nudges all candidates at once — reassigning n rows would cost O(n ·
// nlist) for home lists that almost never change. A row whose nearest
// centroid did drift stays in its old list until the next full build.
// lead is as in Refresh.
func (t *Table) Reseat(data *mat.Paged, lead *Table) *Table {
	t.checkShape(data.Rows, data.Cols)
	if lead != nil {
		if encodedAs[t.codec] == encodedAs[lead.codec] {
			return t.adopt(lead)
		}
		return t.over(data, lead.lay, lead, nil, false)
	}
	return t.over(data, t.lay.reseat(data), nil, nil, false)
}

// adopt returns t's codec and settings over lead's candidates, layout and
// blocks, which hold t's encoding: producing it encodes and copies nothing.
func (t *Table) adopt(lead *Table) *Table {
	out := *t
	out.data, out.lay, out.blocks, out.work = lead.data, lead.lay, lead.blocks, Work{}
	return &out
}

// over returns t's codec and settings over (data, lay). With reuse, lay
// descends from t's layout and t's encoding is kept where it still holds:
// a block that holds t's block's rows (see kept) is shared when none of
// them is dirty and patched when some are, and one whose members changed
// is encoded against the block it was. A binary16 cell takes its int8
// pages from lead, a float64 or int8 cell over lay, or else keeps its own
// the same way, and counts its open rows again only where a row changed.
func (t *Table) over(data *mat.Paged, lay layout, lead *Table, dirty []int, reuse bool) *Table {
	out := *t
	out.data, out.lay, out.work = data, lay, Work{}
	out.blocks = make([]block, lay.nblocks())
	for b := range out.blocks {
		n, ids := lay.block(b)
		s := span{ids: ids, data: data}
		var (
			prev    block
			prevIDs []int32
			at      []int
			same    bool
		)
		if reuse {
			prev = t.blocks[b]
			_, prevIDs = t.lay.block(b)
			at, same = t.kept(lay, b, dirty)
		}
		// encode returns enc's encoding of block b, carrying over what
		// still holds of pages, t's block b under enc (nil without reuse).
		encode := func(enc codec, pages []Codes) []Codes {
			switch {
			case !same:
				return encodeBlock(enc, s, n, pages, prevIDs, dirty, &out.work)
			case len(at) > 0:
				return patchBlock(enc, s, pages, at, &out.work)
			}
			return pages
		}
		nb := &out.blocks[b]
		*nb = block{n: n, codes: encode(codecs[t.codec], prev.codes)}
		if t.codec != F16 {
			continue
		}
		if lead != nil {
			nb.keys = lead.keys(b)
		} else {
			nb.keys = encode(codecs[I8], prev.keys)
		}
		if same {
			nb.open = prev.open - overflowing(prev.keys, at, 0) + overflowing(nb.keys, at, 0)
		} else {
			nb.open = overflowing(nb.keys, nil, n)
		}
	}
	return &out
}

// kept reports whether block b of lay, which descends from t's layout by
// a refresh over the dirty rows, holds exactly the rows t's block b holds,
// and if so at which positions the dirty rows are: under the flat layout
// always; in an inverted file, when the list has t's list's ids, which a
// refresh keeps for a list that no dirty row left or joined.
func (t *Table) kept(lay layout, b int, dirty []int) (at []int, ok bool) {
	if t.inverted() != nil {
		_, ids := lay.block(b)
		_, prev := t.lay.block(b)
		if len(ids) != len(prev) || len(ids) > 0 && &ids[0] != &prev[0] {
			return nil, false
		}
	}
	return lay.at(b, dirty), true
}

// keys returns the int8 pages of t's block b: a binary16 cell's keys, any
// other cell's own encoding.
func (t *Table) keys(b int) []Codes {
	if t.codec == F16 {
		return t.blocks[b].keys
	}
	return t.blocks[b].codes
}

// Search is SearchBatch over this one table and this one query: clamp k,
// scan the blocks the layout visits under the codec's score, and — when
// that score is approximate — re-rank the rerank*k best survivors exactly.
// See Index for the result contract.
func (t *Table) Search(q []float64, k int, opt Options) []core.Scored {
	var out [1][]core.Scored
	SearchBatch([]*Table{t}, []BatchQuery{{Q: q, K: k, Opt: opt}}, out[:])
	return out[0]
}

// approxScored is one survivor of an approximate scan: the candidate id,
// the codec score that selected it, and its exact float64 score. The
// approximate score drives the sharded survivor merge (it is
// shard-invariant), the exact score the final ranking.
type approxScored struct {
	id            int
	approx, exact float64
}

// rerankBudget is the survivor-window size of one approximate search:
// mult*k, clamped to the candidate count (and guarded against overflow).
func rerankBudget(k, mult, n int) int {
	m := k * mult
	if m < k || m > n {
		m = n
	}
	return m
}
