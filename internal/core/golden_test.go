package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pane/internal/datagen"
	"pane/internal/mat"
)

// sha256Of hashes the float64 bits of the given matrices, in order.
func sha256Of(ms ...*mat.Dense) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range ms {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sha256OfFloats hashes the float64 bits of the given slices, in order.
func sha256OfFloats(vs ...[]float64) string {
	ms := make([]*mat.Dense, len(vs))
	for i, v := range vs {
		ms[i] = &mat.Dense{Rows: 1, Cols: len(v), Data: v}
	}
	return sha256Of(ms...)
}

// TestAffinityGoldenBits pins the bits of everything the APMI seeds Rr and
// Rc feed, on a bench-shaped datagen graph (n = 3,000, d = 100, seed 1):
// F' and B' from AffinityFromGraph serially and with two workers, the
// embedding PSVDCCD trains from them, and the retained state's levels and
// normalization sums after a 20-delta chain of mixed edge and attribute
// updates. How the seeds are stored or read must leave every one of these
// hashes where it is. The recurrence's multiply-adds are plain Go, which
// other architectures may fuse, so the hashes are amd64's.
func TestAffinityGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are amd64's; %s may fuse the recurrence's multiply-adds", runtime.GOARCH)
	}
	g, err := datagen.Generate(datagen.Config{
		Name: "golden", N: 3000, AvgOutDeg: 8, D: 100, AttrsPer: 6, Communities: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 16, Alpha: 0.5, Eps: 0.015, Seed: 1}
	iters := cfg.Iterations()
	got := map[string]string{}
	for _, nb := range []int{1, 2} {
		f, b := AffinityFromGraph(g, cfg.Alpha, iters, nb)
		key := fmt.Sprintf("nb=%d", nb)
		got["F "+key] = sha256Of(f)
		got["B "+key] = sha256Of(b)
		if nb == 2 { // PSVDCCD takes ownership of f and b: hashed above
			emb := PSVDCCD(f, b, cfg, nb)
			got["embedding"] = sha256Of(emb.Xf.Dense(), emb.Xb.Dense(), emb.Y)
		}
	}

	s := NewAffinityState(g, cfg.Alpha, iters, 2)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20; step++ {
		edges, attrs := randomDelta(rng, g, rng.Intn(4), (step%2)*(1+rng.Intn(3)))
		g2, eff, err := g.Apply(edges, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if up, err := UpdateAffinity(s, g2, eff, 0, 2); err != nil || !up.Incremental {
			t.Fatalf("step %d: UpdateAffinity %+v, %v", step, up, err)
		}
		g = g2
	}
	got["state levels"] = sha256Of(append(append([]*mat.Dense(nil), s.lf...), s.lb...)...)
	got["state sums"] = sha256OfFloats(s.colTree, s.rowSums)

	want := map[string]string{
		"F nb=1":       "84eae7e04425bd6dee516893fe776bf4d0aa90065d8ad3348e18d73ec8aee24c",
		"B nb=1":       "d90a932ff53c4a6b021fcbb2512b0d9c2251b29898baaefd3e0e393495fdc816",
		"F nb=2":       "1c29c7b2dbb6c17ed48a3b3442b996e2bd794911e9f04a18c7089572aefefa81",
		"B nb=2":       "d90a932ff53c4a6b021fcbb2512b0d9c2251b29898baaefd3e0e393495fdc816",
		"embedding":    "95ef4ad93189d39781490bf3d6157b24f0f16e6e84dd69cb0f1b730135f5c457",
		"state levels": "793f220394e7ae2aebac4f97310e44ba8df2e539b2619d3cfa72a25a2a28159e",
		"state sums":   "434d193e72308ca7365789b7f6f7938cc7a24ba276a6f528b26419c3f294cbe1",
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		w := want[k]
		t.Logf("%-12s %s", k, got[k])
		if got[k] != w {
			t.Errorf("%s: sha256 %s, want %s", k, got[k], w)
		}
	}
}

// TestRefineGoldenBits pins the bits of the warm start an update runs, on
// TestAffinityGoldenBits' datagen graph: Xf, Xb and Y after a chain of
// three refinements from a trained model. The first delta is node-only
// (the gathered O(Δ) path), the second lists nodes and attributes
// (restricted sweeps over full residuals), and the third lists every row
// (the full path). Each step patches the retained affinity state over the
// write's effect first and refines the rows the effect lists, as the
// engine does; no write in the chain re-sends an edge the graph holds. The
// hashes are amd64's, and one worker and three leave the same bits.
func TestRefineGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are amd64's; %s may fuse the recurrence's multiply-adds", runtime.GOARCH)
	}
	g0, err := datagen.Generate(datagen.Config{
		Name: "golden", N: 3000, AvgOutDeg: 8, D: 100, AttrsPer: 6, Communities: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 16, Alpha: 0.5, Eps: 0.015, Seed: 1}
	iters := cfg.Iterations()
	f, b := AffinityFromGraph(g0, cfg.Alpha, iters, 2)
	emb0 := PSVDCCD(f, b, cfg, 2)

	want := []string{
		"703d2fa83562c0e547829b6616d71ccf497ee9ad505d47fe00a2218ff5d9c763", // node-only
		"69e80a2108bdb921ee0b4a9b49d8cde60bd6c04bc2575c03baf55426d5870e3a", // node + attribute
		"fffeeea30768d791b3131b478e1f6bfa010096356a864e8defc1a6fb5d618c51", // every row
	}
	for _, nb := range []int{1, 3} {
		g, emb := g0, emb0
		s := NewAffinityState(g, cfg.Alpha, iters, nb)
		rng := rand.New(rand.NewSource(2))
		for step, w := range want {
			edges, attrs := randomDelta(rng, g, 4, 2*min(step, 1))
			g2, eff, err := g.Apply(edges, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UpdateAffinity(s, g2, eff, 0, nb); err != nil {
				t.Fatal(err)
			}
			g = g2
			delta := UpdateDelta{Nodes: eff.Nodes, Attrs: eff.Attrs}
			if step == 2 {
				delta = AllRows(g.N, g.D)
			}
			emb = Refine(s, emb, 2, nb, delta)
			got := sha256Of(emb.Xf.Dense(), emb.Xb.Dense(), emb.Y)
			t.Logf("nb=%d step %d %s", nb, step, got)
			if got != w {
				t.Errorf("nb=%d step %d (%d rows): sha256 %s, want %s", nb, step, delta.Rows(), got, w)
			}
		}
	}
}
