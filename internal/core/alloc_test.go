package core

import (
	"runtime"
	"testing"

	"pane/internal/datagen"
)

// TestPSVDCCDAllocationBound is the training half's memory gate, at the
// end-to-end benchmark's fixture shape (n = 30,000, d = 100, K = 128, two
// workers): PSVDCCD may allocate its factors, the column caches its sweeps
// read and the SVD sketches, never a second n x d matrix per target. The
// residuals overwrite F' and B' and the attribute sweeps copy 8 residual
// columns at a time instead of transposing both residuals; product-then-Sub
// residuals, per-block temporaries and the transposes made it 426 MB.
func TestPSVDCCDAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains at the benchmark's shape")
	}
	g, err := datagen.Generate(datagen.Config{
		Name: "bench", N: 30000, AvgOutDeg: 8, D: 100, AttrsPer: 6, Communities: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 128, Alpha: 0.5, Eps: 0.25, Threads: 2, Seed: 1}
	f, b := AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), cfg.Threads)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	PSVDCCD(f, b, cfg, cfg.Threads)
	runtime.ReadMemStats(&after)
	const bound = 300 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("PSVDCCD allocates %.1f MB", float64(got)/(1<<20))
	if got > bound {
		t.Fatalf("PSVDCCD allocates %d bytes, over the %d MiB bound", got, bound>>20)
	}
}
