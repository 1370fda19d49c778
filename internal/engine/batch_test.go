package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/index"
	"pane/internal/mat"
)

// batchTestModel is a graph with enough nodes that a table's thread
// split engages (index.minParallelRows per unit) around a random
// embedding: batch = single is a property of the scan, not of training.
func batchTestModel(t *testing.T) func(shards, threads int) *Engine {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{
		Name: "batchtest", N: 9000, AvgOutDeg: 3, D: 40, AttrsPer: 3, Communities: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 12, Alpha: 0.5, Eps: 0.25, Seed: 5}
	rng := rand.New(rand.NewSource(5))
	random := func(rows int) *mat.Dense {
		m := mat.New(rows, cfg.K/2)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	emb := &core.Embedding{Xf: mat.Page(random(g.N)), Xb: mat.Page(random(g.N)), Y: random(g.D)}
	return func(shards, threads int) *Engine {
		eng, err := New(g, emb, cfg, WithIndex(IndexConfig{
			IVF: true, Quantize: true, FP16: true, NList: 9, NProbe: 2, Shards: shards, Threads: threads,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
}

// TestBatchEqualsSingles is the batch scan's contract: every member of a
// batch — whatever shares the batch with it — carries exactly the answer
// (ids, score bits, backend, error) the same query gets issued alone, in
// every mode, both spaces, at every shard and thread count, for batch
// sizes on both sides of the scan's query-block width.
func TestBatchEqualsSingles(t *testing.T) {
	build := batchTestModel(t)
	modes := []string{ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ, ModeFP16, ModeIVFFP16}
	for _, shards := range []int{1, 2, 3} {
		for _, threads := range []int{1, 4} {
			eng := build(shards, threads)
			n, d := eng.Model().Nodes(), eng.Model().Attrs()
			rng := rand.New(rand.NewSource(int64(10*shards + threads)))
			pool := []int{0, 1, n - 1, rng.Intn(n), rng.Intn(n), rng.Intn(n)} // few sources: duplicates are the rule
			for _, size := range []int{1, 2, 31, 33, 97} {
				// Offsets walk the 12 (mode, space) pairs through every
				// position of a batch this small; larger ones hold them all.
				for off := 0; off < 2*len(modes); off += size {
					qs := make([]Query, size)
					for j := range qs {
						combo := (off + j) % (2 * len(modes))
						q := Query{Op: OpTopLinks, Mode: modes[combo%len(modes)], Src: pool[rng.Intn(len(pool))]}
						if combo >= len(modes) {
							q.Op, q.Node = OpTopAttrs, q.Src
						}
						q.K = kp([]int{1, 3, 10, d + 7}[rng.Intn(4)]) // d+7 exceeds the attribute candidates
						q.NProbe = []int{0, 0, 1, 3, 1 << 20}[rng.Intn(5)]
						switch rng.Intn(12) {
						case 0:
							q.Op = "top-nothing"
						case 1:
							q.K = kp(0)
						case 2:
							q.Src, q.Node = n, -1
						case 3:
							q.K = kp(n + 5) // more than there are link candidates
						case 4:
							q = Query{Op: OpLinkScore, Src: q.Src, Dst: pool[0]}
						}
						qs[j] = q
					}
					results, version := eng.Execute(qs)
					if version != eng.Version() || len(results) != size {
						t.Fatalf("%d results at version %d", len(results), version)
					}
					for j, q := range qs {
						label := fmt.Sprintf("shards=%d threads=%d size=%d member %d %+v k=%d", shards, threads, size, j, q, *orK(q.K))
						checkMember(t, label, eng, q, results[j])
					}
				}
			}
		}
	}
}

func orK(k *int) *int {
	if k == nil {
		return kp(DefaultK)
	}
	return k
}

// checkMember compares one batch result with the same query issued alone.
func checkMember(t *testing.T, label string, eng *Engine, q Query, got Result) {
	t.Helper()
	var want TopKAnswer
	var err error
	switch q.Op {
	case OpTopLinks:
		want, err = eng.TopLinks(q.Src, *orK(q.K), q.Mode, q.NProbe)
	case OpTopAttrs:
		want, err = eng.TopAttrs(q.Node, *orK(q.K), q.Mode, q.NProbe)
	case OpLinkScore:
		if got.Err != "" || got.Score == nil || *got.Score != eng.Model().Scorer.Directed(q.Src, q.Dst) {
			t.Fatalf("%s: scalar member %+v", label, got)
		}
		return
	default:
		if got.Err == "" || got.Top != nil {
			t.Fatalf("%s: unknown op answered %+v", label, got)
		}
		return
	}
	if err != nil {
		if got.Err == "" || got.Top != nil || got.Backend != "" {
			t.Fatalf("%s: fails alone (%v) but the batch answered %+v", label, err, got)
		}
		return
	}
	if got.Err != "" {
		t.Fatalf("%s: failed in the batch: %s", label, got.Err)
	}
	if want.Backend == BackendScan {
		t.Fatalf("%s: no fresh index, the comparison would be scan against scan", label)
	}
	if got.Backend != want.Backend {
		t.Fatalf("%s: backend %q, alone %q", label, got.Backend, want.Backend)
	}
	sameAnswers(t, label, want, TopKAnswer{Results: got.Top})
}

// TestIndexWorkCounters pins pane_index_rows_scored_total,
// pane_index_rows_reranked_total and pane_index_bytes_streamed_total: they
// are functions of the input alone, and a batch scores and re-scores as
// many (query, row) pairs as its members issued singly while walking the
// candidates' encoding once instead of once each. Every re-scored pair
// reads its row on top: an exact query's rows its int8 bound could not
// rule out (8·dim bytes each), an fp16 query's (2·dim), an sq8 query's
// survivors (8·dim).
func TestIndexWorkCounters(t *testing.T) {
	eng := batchTestModel(t)(1, 1)
	n, dim := eng.Model().Nodes(), eng.Model().Emb.Xf.Cols
	counter := func(name, backend string) uint64 {
		v, ok := eng.Metrics().Snapshot()[fmt.Sprintf(`%s{backend="%s"}`, name, backend)].(uint64)
		if !ok {
			t.Fatalf("no series %s for backend %s", name, backend)
		}
		return v
	}
	names := [3]string{"pane_index_rows_scored_total", "pane_index_rows_reranked_total", "pane_index_bytes_streamed_total"}
	work := func(backend string, run func()) (w [3]uint64) {
		for i, name := range names {
			w[i] = counter(name, backend)
		}
		run()
		for i, name := range names {
			w[i] = counter(name, backend) - w[i]
		}
		return w
	}
	const members, k = 32, 10
	batch := make([]Query, members)
	for i := range batch {
		batch[i] = Query{Op: OpTopLinks, Src: i * 17, K: kp(k)}
	}
	for _, tier := range []struct {
		mode, backend          string
		rowBytes, rescoreBytes int
		minRerank, maxRerank   int // per member
	}{
		{ModeExact, BackendExact, dim + 8, 8 * dim, k, n / 10},
		{ModeFP16, BackendFP16, dim + 8, 2 * dim, k, n / 10},
		{ModeSQ8, BackendSQ8, dim + 8, 8 * dim, index.DefaultRerank * k, index.DefaultRerank * k},
	} {
		for i := range batch {
			batch[i].Mode = tier.mode
		}
		for rep := 0; rep < 2; rep++ { // the counts repeat exactly
			together := work(tier.backend, func() { eng.Execute(batch) })
			if rr := together[1]; together[0] != uint64(members*n) || rr < uint64(members*tier.minRerank) || rr > uint64(members*tier.maxRerank) ||
				together[2] != uint64(n*tier.rowBytes)+uint64(tier.rescoreBytes)*rr {
				t.Fatalf("%s batch: %d rows scored, %d re-scored, over %d bytes", tier.mode, together[0], rr, together[2])
			}
			alone := work(tier.backend, func() {
				for _, q := range batch {
					mustTop(t, eng, true, q.Src, k, tier.mode, 0)
				}
			})
			if alone[0] != uint64(members*n) || alone[1] != together[1] || alone[2] != uint64(members*n*tier.rowBytes)+uint64(tier.rescoreBytes)*alone[1] {
				t.Fatalf("%s singles: %v, batch %v", tier.mode, alone, together)
			}
		}
	}
	// An inverted probe touches only the lists it visits.
	w := work(BackendIVF, func() { mustTop(t, eng, true, 3, k, ModeIVF, 0) })
	if w[0] == 0 || w[0] >= uint64(n) || w[1] < k || w[2] != w[0]*uint64(dim+8)+8*uint64(dim)*w[1] {
		t.Fatalf("ivf single: %v of %d candidates", w, n)
	}
}
