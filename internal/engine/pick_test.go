package engine

import (
	"fmt"
	"testing"

	"pane/internal/core"
	"pane/internal/index"
	"pane/internal/mat"
)

// degradation is the documented chain a requested mode walks until it
// reaches a backend the configuration built: an inverted mode without the
// IVF never lands on a flat compressed tier (Quantize-only + ivfsq is
// exact, not sq8), and one compressed tier never stands in for the other
// (FP16-only + sq8 is exact).
var degradation = map[string][]string{
	ModeExact:   {BackendExact},
	ModeIVF:     {BackendIVF, BackendExact},
	ModeSQ8:     {BackendSQ8, BackendExact},
	ModeFP16:    {BackendFP16, BackendExact},
	ModeIVFSQ:   {BackendIVFSQ, BackendIVF, BackendExact},
	ModeIVFFP16: {BackendIVFFP16, BackendIVF, BackendExact},
}

func builtBackends(c IndexConfig) map[string]bool {
	return map[string]bool{
		BackendExact: true, BackendIVF: c.IVF, BackendSQ8: c.Quantize, BackendFP16: c.FP16,
		BackendIVFSQ: c.IVF && c.Quantize, BackendIVFFP16: c.IVF && c.FP16,
	}
}

// directCells builds every backend over one whole candidate matrix with
// the index constructors, the way a caller without an engine would.
func directCells(data *mat.Dense, ivf index.IVFConfig) map[string]index.Index {
	iv := index.BuildIVF(data, ivf)
	return map[string]index.Index{
		BackendExact:   index.NewExact(data, 1),
		BackendSQ8:     index.NewSQ8(data, 0, 1),
		BackendFP16:    index.NewFP16(data, 1),
		BackendIVF:     iv,
		BackendIVFSQ:   index.NewIVFSQ(iv, data, 0),
		BackendIVFFP16: index.NewIVFFP16(iv, data),
	}
}

// TestBackendSelectionGrid pins which backend answers every (built tiers,
// requested mode) pair in both candidate spaces, and that the answer is
// the directly constructed backend's. One shard is compared at the default
// probe count against an identically configured direct build; three shards
// train their own quantizers, so they are compared under full probe, where
// an inverted answer no longer depends on the quantizer.
func TestBackendSelectionGrid(t *testing.T) {
	g, emb, cfg := shardTestModel(t)
	scorer := core.NewLinkScorer(emb)
	ivf := index.IVFConfig{NList: 4, NProbe: 2, Seed: cfg.Seed, Threads: 1}
	direct := map[bool]map[string]index.Index{
		true:  directCells(scorer.TransformedCandidates(1), ivf),
		false: directCells(emb.Y, ivf),
	}
	modes := []string{ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ, ModeFP16, ModeIVFFP16}
	const k, fullProbe = 6, 1 << 20

	for bits := 0; bits < 8; bits++ {
		ic := IndexConfig{IVF: bits&1 != 0, Quantize: bits&2 != 0, FP16: bits&4 != 0, NList: 4, NProbe: 2}
		built := builtBackends(ic)
		for _, shards := range []int{1, 3} {
			ic.Shards = shards
			eng, err := New(g, emb, cfg, WithIndex(ic))
			if err != nil {
				t.Fatal(err)
			}
			nprobe := 0
			if shards > 1 {
				nprobe = fullProbe
			}
			for _, mode := range modes {
				want := BackendExact
				for _, b := range degradation[mode] {
					if built[b] {
						want = b
						break
					}
				}
				for _, links := range []bool{true, false} {
					for _, node := range []int{0, 41, 119} {
						label := fmt.Sprintf("ivf=%v quantize=%v fp16=%v shards=%d mode=%s links=%v node=%d",
							ic.IVF, ic.Quantize, ic.FP16, shards, mode, links, node)
						got := mustTop(t, eng, links, node, k, mode, nprobe)
						if got.Backend != want {
							t.Fatalf("%s: backend %q, want %q", label, got.Backend, want)
						}
						opt := index.Options{NProbe: nprobe}
						q := emb.Xf.Row(node)
						if links {
							opt.Skip = func(id int) bool { return id == node }
						} else {
							q = emb.AttrQueryInto(node, make([]float64, emb.Xf.Cols))
						}
						sameAnswers(t, label,
							TopKAnswer{Results: direct[links][want].Search(q, k, opt)}, got)
					}
				}
			}
		}
	}
}
