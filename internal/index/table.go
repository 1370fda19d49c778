package index

import (
	"fmt"

	"pane/internal/core"
	"pane/internal/mat"
)

// Table is the one index type: a layout (which blocks of candidate rows a
// query visits) times a codec (how a block stores and scores its rows).
// Every Kind is a cell of that grid. A Table is immutable after
// construction and safe for concurrent searches; Refresh, Reseat and
// Rebuild return the next generation and leave the receiver intact.
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
// bytes written into storage it does not share with its parent (a float64
// cell's re-gathered lists, a cell's codes and page slices; a flat cell's
// rows are the caller's, and a cell that adopts another's encoding writes
// nothing). Functions of the input alone.
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

// newFlat is the flat cell of codec c over data, paged without copying.
func newFlat(data *mat.Dense, c Codec, rerank, threads int) *Table {
	pd := mat.Page(data)
	return newCell(pd, flat{pd}, c, rerank, threads).over(pd, flat{pd}, nil, nil, false)
}

// NewExact is the flat float64 cell: data (one candidate per row) is
// wrapped without copying, so the caller must not mutate it afterwards,
// and its rows are quantized once for the scan's score bound (see
// f64Codec). threads is the search fan-out; values <= 1 scan serially.
func NewExact(data *mat.Dense, threads int) *Table { return newFlat(data, F64, 0, threads) }

// NewSQ8 is the flat int8 cell: data is shared for the exact re-rank and
// its rows are quantized once (NewExact(data).Encode(I8, rerank) shares
// the exact cell's quantization instead). rerank <= 0 means DefaultRerank.
func NewSQ8(data *mat.Dense, rerank, threads int) *Table {
	return newFlat(data, I8, rerank, threads)
}

// NewFP16 is the flat binary16 cell. Standing alone it quantizes its rows
// too, for the int8 codes its scan bounds scores with;
// NewExact(data).Encode(F16, 0) shares the exact cell's instead.
func NewFP16(data *mat.Dense, threads int) *Table { return newFlat(data, F16, 0, threads) }

// BuildIVF is the inverted float64 cell: data is clustered into an
// inverted file (see IVFConfig) and copied list by list, so the caller
// may keep using it; builds with the same data and config are bit-for-bit
// reproducible.
func BuildIVF(data *mat.Dense, cfg IVFConfig) *Table {
	pd := mat.Page(data)
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
// value-identical (data is typically t's matrix WithRows). Only O(Δ)
// state is touched and the rest is shared with t: a flat block copies its
// page slice and the pages a dirty row is on, an inverted file moves the
// dirty rows between lists against its frozen coarse quantizer, and a list
// that changed carries its survivors' codes over; only dirty rows are
// encoded. The result is bit-identical to a fresh build over data (for an
// inverted file, to Rebuild).
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

// Rebuild re-indexes data (t's dimension, any row count) from scratch
// against t's coarse quantizer: every row is reassigned and every block
// encoded. It is the frozen-quantizer full build Refresh must reproduce
// bit for bit; retraining the quantizer is BuildIVF's decision.
func (t *Table) Rebuild(data *mat.Paged) *Table {
	if data.Cols != t.data.Cols {
		panic(fmt.Sprintf("index: %s rebuild dim %d does not match index dim %d", t.Kind(), data.Cols, t.data.Cols))
	}
	return t.over(data, t.lay.rebuild(data), nil, nil, false)
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
// a block whose rows lay shares with t is shared, a flat block (same
// membership by construction) is patched, and a list that changed is
// encoded against the list it was. A binary16 cell takes its int8 pages
// from lead, a float64 or int8 cell over lay, or else keeps its own the
// same way, and counts its open rows again only where a row changed.
func (t *Table) over(data *mat.Paged, lay layout, lead *Table, dirty []int, reuse bool) *Table {
	out := *t
	out.data, out.lay, out.work = data, lay, Work{}
	out.blocks = make([]block, lay.nblocks())
	for b := range out.blocks {
		rows, ids := lay.block(b)
		var prev block
		if reuse {
			prev = t.blocks[b]
		}
		nb := &out.blocks[b]
		if rows == prev.rows {
			*nb = prev
		} else {
			*nb = block{rows: rows, codes: t.encode(codecs[t.codec], b, rows, ids, prev.codes, dirty, &out.work)}
			if t.codec == F64 && ids != nil { // the float64 cell's storage is the list itself
				out.work.BytesCopied += int64(rows.Rows) * int64(8*rows.Cols+4)
			}
		}
		if t.codec != F16 {
			continue
		}
		switch {
		case lead != nil:
			nb.keys = lead.keys(b)
		case rows != prev.rows:
			nb.keys = t.encode(codecs[I8], b, rows, ids, prev.keys, dirty, &out.work)
		}
		switch {
		case rows == prev.rows:
		case prev.rows != nil && ids == nil: // patched: only the dirty rows changed
			nb.open = prev.open - overflowing(prev.keys, dirty, 0) + overflowing(nb.keys, dirty, 0)
		default:
			nb.open = overflowing(nb.keys, nil, rows.Rows)
		}
	}
	return &out
}

// encode returns enc's paged encoding of block b of a layout (rows,
// members ids), carrying over what still holds of prev, t's encoding of
// its block b under enc (nil: encode every row).
func (t *Table) encode(enc codec, b int, rows *mat.Paged, ids []int32, prev []Codes, dirty []int, w *Work) []Codes {
	if prev == nil {
		return encodeBlock(enc, rows, ids, nil, nil, nil, w)
	}
	if ids == nil {
		return patchBlock(enc, rows, prev, dirty, w)
	}
	_, prevIDs := t.lay.block(b)
	return encodeBlock(enc, rows, ids, prev, prevIDs, dirty, w)
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
