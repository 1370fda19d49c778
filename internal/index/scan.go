package index

import (
	"math"
	"slices"
	"sync"
	"time"

	"pane/internal/core"
	"pane/internal/mat"
)

// The scan driver: every search in the package — one query or a batch,
// one table or a sharded set — is SearchBatch. Work is cut by ROW RANGE,
// never by query: each table's visited rows split into at most `threads`
// units, every unit walks its rows once in cache-sized tiles, and every
// query of the batch is scored against a tile while it is resident. So a
// batch of Q queries reads each candidate row's encoding from memory once,
// not Q times, and the Q·n code dots run out of L1. Every int8, float64
// and binary16 scan scores its rows with one kernel, dotI8Rows: the
// query quantized to 16 bits against a run of rows' int8 codes, each
// row's sum turned inside the kernel into what the scan tests (a certified
// bound, or the int8 codec's approximate score), so a scan's own per-row
// work is one comparison against its top-k floor.
//
// What stays per query is everything that makes an answer: its prepared
// form under the codec, its skip, its probe, and one accumulator per unit
// — the per-unit contributions meet in mergePartials, which applies the
// int8 codec's survivor cut globally. Each member scans a tile through the
// same codec scan a single query runs, so each (query, row) score is the
// same kernel on the same two vectors in the same summation order (the
// float64 and binary16 codecs re-score a row their int8 bound cannot rule
// out, against that member's own running top-k), and top-k under
// core.Better is independent of how rows are grouped, so a batch member's
// answer is bit-for-bit the answer it gets alone.
//
// That is also why the batch is not a GEMM, although Q·Zᵀ is what the
// float64 cells compute: mat.MulInto accumulates each output in
// ascending-p order while mat.Dot folds sixteen lanes, so their scores
// differ in the last bits and a GEMM-scored batch would not equal its
// single queries. Nor would a GEMM save the traffic the certified scan
// saves: it reads every float64 row, and the scan reads under one in a
// hundred.

const (
	// tileBytes is how much of a block a unit scores against every query
	// before moving on. 16 KiB of rows beside the block of queries (64
	// float64 queries of dimension 64 are 32 KiB; the benchmark's 32 are
	// 16 KiB) sits inside a 48 KiB L1d, and well inside L2 everywhere;
	// smaller tiles only add loop overhead, larger ones evict the queries.
	tileBytes = 16 << 10

	// queryBlock bounds how many queries are scored per pass over the
	// rows, and with it the scratch a batch pins: units × queryBlock
	// pooled accumulators, however long the batch. A longer batch makes
	// ⌈Q/queryBlock⌉ passes.
	queryBlock = 64

	// minParallelRows is the per-unit row budget below which goroutine
	// fan-out costs more than the scan it parallelizes.
	minParallelRows = 2048
)

// BatchQuery is one query of a SearchBatch: the arguments of Index.Search.
type BatchQuery struct {
	Q   []float64
	K   int
	Opt Options
}

// Stats is what one search did: the wall time of its two stages (the
// parallel row scans, probes and query preparation included; the merge
// of their contributions) and the work the scans touched. RowsScored
// counts (query, row) pairs handed to a codec; Reranked the pairs scored
// again from a row's full encoding — the rows a float64 or binary16
// cell's int8 bound could not rule out (mat.Dot over the float64 row,
// dotFP16 over the halves), an int8 cell's survivors (mat.Dot);
// BytesStreamed the encoded bytes of the rows walked, once per tile
// however many queries scored it, plus for each reranked pair what it
// read: 8·dim, 2·dim for binary16. All are functions of the input and the
// row-range cut alone.
type Stats struct {
	Fanout, Merge                       time.Duration
	RowsScored, Reranked, BytesStreamed int64
}

// member is one query of a block as the units see it.
type member struct {
	query      // prepared by the codec
	k      int // accumulator sizes derive from it per table
	nprobe int // Options.NProbe
	skip   func(int) bool
	out    int // position in the caller's batch
}

// unit is one worker's share of a scan: a row range of one table — the
// visited blocks whole (segs nil) or a group of block segments — and,
// when members probe different blocks, who visits which.
type unit struct {
	t        *Table
	visit    []core.Scored
	segs     []probeSeg
	who      [][]int32 // per block, the members visiting it; nil: all of them
	rows     int64     // (member, row) pairs scored
	reranked int64     // of which scored from the float64 row
	bytes    int64     // encoded bytes walked
}

// scratch is the working set of one search, pooled whole so a single
// query allocates none of it and a member's 16-bit query buffer is reused.
type scratch struct {
	ms    []member
	units []unit
	tops  []*core.TopK // [unit][member]
	parts []partial    // [member][unit]
	mult  int          // survivor multiplier of an approximate codec, else 1
	wg    sync.WaitGroup
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// everyone is the member list of a block all members visit.
var everyone = func() (ids [queryBlock]int32) {
	for i := range ids {
		ids[i] = int32(i)
	}
	return
}()

// SearchBatch answers qs[i] into out[i] over tables — row shards of one
// candidate set with disjoint id ranges (see Shift), all the same cell of
// the grid; nil and empty tables are skipped. Every answer is exactly
// what Search returns for that query over the concatenated candidates
// (see SearchSharded for what that means per cell), whatever else is in
// the batch. A query with K < 1 is answered nil.
func SearchBatch(tables []*Table, qs []BatchQuery, out [][]core.Scored) Stats {
	var st Stats
	var first *Table
	maxUnits := 0
	for _, t := range tables {
		if t == nil || t.Len() == 0 {
			continue
		}
		if first == nil {
			first = t
		} else if t.codec != first.codec {
			panic("index: one search over tables of different codecs")
		}
		maxUnits += t.threads
	}
	if first == nil {
		return st
	}
	enc := codecs[first.codec]
	width := min(len(qs), queryBlock)

	s := scratchPool.Get().(*scratch) // returned at the end, not deferred: a panic must not pool a half-used one
	s.mult = max(1, first.rerank)
	s.tops = slices.Grow(s.tops[:0], maxUnits*width)[:maxUnits*width]
	s.parts = slices.Grow(s.parts[:0], maxUnits*width)[:maxUnits*width]

	for lo := 0; lo < len(qs); lo += queryBlock {
		t0 := time.Now()
		s.ms = slices.Grow(s.ms[:0], width)[:width]
		n := 0
		for i := lo; i < min(lo+queryBlock, len(qs)); i++ {
			if q := &qs[i]; q.K >= 1 {
				m := &s.ms[n]
				enc.prepare(&m.query, q.Q)
				m.k, m.nprobe, m.skip, m.out = q.K, q.Opt.NProbe, q.Opt.Skip, i
				n++
			}
		}
		s.ms = s.ms[:n]
		if n == 0 {
			continue
		}
		s.units = s.units[:0]
		for _, t := range tables {
			if t != nil && t.Len() > 0 {
				s.units = t.plan(s.units, s.ms)
			}
		}

		// One goroutine per unit; a single unit — one unsharded
		// single-threaded table — runs inline. The caller does not take a
		// unit itself: a goroutine it starts and then outruns sits in its
		// P's runnext slot, which idle Ps steal last, so on an otherwise
		// idle server two short units would run one after the other.
		nu := len(s.units)
		if nu == 1 {
			s.run(0)
		} else {
			s.wg.Add(nu)
			for u := range nu {
				go func() {
					defer s.wg.Done()
					s.run(u)
				}()
			}
			s.wg.Wait()
		}
		t1 := time.Now()

		for i := range s.ms {
			m := &s.ms[i]
			out[m.out] = mergePartials(s.parts[i*nu:(i+1)*nu], m.k, s.mult)
			m.q, m.skip = nil, nil // the pool must not pin a caller's model
		}
		clear(s.parts[:n*nu])
		for u := range s.units {
			st.RowsScored += s.units[u].rows
			st.Reranked += s.units[u].reranked
			st.BytesStreamed += s.units[u].bytes + s.units[u].reranked*int64(enc.rescoreBytes(first.data.Cols))
			s.units[u] = unit{}
		}
		st.Fanout += t1.Sub(t0)
		st.Merge += time.Since(t1)
	}
	scratchPool.Put(s)
	return st
}

// run scores unit u's rows against every member, then leaves member i's
// contribution in parts[i][u].
func (s *scratch) run(u int) {
	n, nu := len(s.ms), len(s.units)
	unit, tops := &s.units[u], s.tops[u*n:(u+1)*n]
	t := unit.t
	rows := t.data.Rows
	final := codecs[t.codec].final()
	for i := range s.ms {
		m := min(s.ms[i].k, rows)
		if !final {
			m = rerankBudget(s.ms[i].k, s.mult, rows)
		}
		tops[i] = core.GetTopK(m)
	}
	if unit.segs == nil {
		for _, v := range unit.visit {
			unit.walk(s.ms, tops, v.ID, 0, t.blocks[v.ID].rows.Rows)
		}
	} else {
		for _, seg := range unit.segs {
			unit.walk(s.ms, tops, seg.list, seg.lo, seg.hi)
		}
	}
	for i := range s.ms {
		res := tops[i].Take()
		core.PutTopK(tops[i])
		tops[i] = nil
		if final {
			s.parts[i*nu+u] = partial{plain: res}
		} else {
			s.parts[i*nu+u] = partial{quant: t.exact(s.ms[i].q, res)}
			unit.reranked += int64(len(res))
		}
	}
}

// plan appends t's units for one block of queries: the blocks at least
// one member visits, cut into at most t.threads row ranges. The cut is by
// visited ROW count, not block count, so workers stay balanced when list
// sizes are skewed — one huge cluster cannot serialize the search behind
// a single goroutine — and a boundary may fall inside a block.
func (t *Table) plan(units []unit, ms []member) []unit {
	var visit []core.Scored
	var who [][]int32
	if len(ms) == 1 || len(t.blocks) == 1 {
		visit = t.lay.probe(ms[0].q, ms[0].nprobe)
	} else {
		who = make([][]int32, len(t.blocks))
		for i := range ms {
			for _, v := range t.lay.probe(ms[i].q, ms[i].nprobe) {
				who[v.ID] = append(who[v.ID], int32(i))
			}
		}
		for b := range who {
			if len(who[b]) > 0 {
				visit = append(visit, core.Scored{ID: b})
			}
		}
	}
	size := func(b int) int { return t.blocks[b].rows.Rows }
	rows := 0
	for _, v := range visit {
		rows += size(v.ID)
	}
	nb := min(t.threads, rows/minParallelRows)
	if nb <= 1 {
		return append(units, unit{t: t, visit: visit, who: who})
	}
	for _, g := range probeGroups(visit, size, rows, nb) {
		units = append(units, unit{t: t, segs: g, who: who})
	}
	return units
}

// walk offers rows [lo, hi) of block b to the members that visit it, a
// tile at a time: the one place a search crosses into the codec, once per
// (tile, member). A lone member has nothing to share a tile with and
// takes the range whole.
func (u *unit) walk(ms []member, tops []*core.TopK, b, lo, hi int) {
	t := u.t
	enc := codecs[t.codec]
	who := everyone[:len(ms)]
	if u.who != nil {
		who = u.who[b]
	}
	rowBytes := enc.rowBytes(t.data.Cols)
	tile := math.MaxInt
	if len(who) > 1 {
		tile = max(1, tileBytes/rowBytes)
	}
	_, ids := t.lay.block(b)
	s := span{ids: ids, base: t.base}
	for s.lo = lo; s.lo < hi; s.lo = s.hi {
		s.hi = hi
		if hi-s.lo > tile {
			s.hi = s.lo + tile
		}
		for _, i := range who {
			s.skip = ms[i].skip
			u.reranked += int64(enc.scan(tops[i], &t.blocks[b], &ms[i].query, s))
		}
	}
	u.rows += int64(hi-lo) * int64(len(who))
	u.bytes += int64(hi-lo) * int64(rowBytes)
}

// exact attaches to each survivor of an approximate scan its exact score
// — the same mat.Dot the float64 codec scans with, so a re-ranked score
// is bit-identical to the exact cell's.
func (t *Table) exact(q []float64, approx []core.Scored) []approxScored {
	out := make([]approxScored, len(approx))
	for i, a := range approx {
		out[i] = approxScored{id: a.ID, approx: a.Score, exact: mat.Dot(q, t.data.Row(a.ID-t.base))}
	}
	return out
}

// probeSeg is a contiguous row range [lo, hi) of one block.
type probeSeg struct {
	list, lo, hi int
}

// probeGroups packs the visited blocks' rows into at most nb groups of
// near-equal row count, splitting within a block where a boundary falls.
func probeGroups(lists []core.Scored, size func(int) int, totalRows, nb int) [][]probeSeg {
	target := (totalRows + nb - 1) / nb
	groups := make([][]probeSeg, 0, nb)
	var cur []probeSeg
	acc := 0
	for _, l := range lists {
		sz := size(l.ID)
		for pos := 0; pos < sz; {
			take := target - acc
			if rem := sz - pos; take > rem {
				take = rem
			}
			cur = append(cur, probeSeg{list: l.ID, lo: pos, hi: pos + take})
			pos += take
			acc += take
			if acc == target {
				groups = append(groups, cur)
				cur, acc = nil, 0
			}
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}
