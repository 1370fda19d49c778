package sparse

import (
	"math/rand"
	"testing"

	"pane/internal/mat"
)

// syntheticCSR builds an n x n random-walk-like matrix with avg nnz per
// row entries.
func syntheticCSR(n, perRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, 0, n*perRow)
	for i := 0; i < n; i++ {
		for e := 0; e < perRow; e++ {
			entries = append(entries, Entry{i, rng.Intn(n), 1.0 / float64(perRow)})
		}
	}
	return NewCSR(n, n, entries)
}

func BenchmarkSpMMSerial(b *testing.B) {
	m := syntheticCSR(20000, 10, 1)
	x := mat.New(20000, 64)
	for i := range x.Data {
		x.Data[i] = 1
	}
	dst := mat.New(20000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RowNormalized().ParMulDenseInto(dst, x, 1)
	}
	b.SetBytes(int64(m.NNZ() * 64 * 8))
}

func BenchmarkSpMMFusedAxpy(b *testing.B) {
	m := syntheticCSR(20000, 10, 2)
	x := mat.New(20000, 64)
	// An attribute-shaped seed: 6 of 64 columns per row.
	rng := rand.New(rand.NewSource(3))
	entries := make([]Entry, 0, 20000*6)
	for i := 0; i < 20000; i++ {
		for e := 0; e < 6; e++ {
			entries = append(entries, Entry{i, rng.Intn(64), 1})
		}
	}
	y := NewCSR(20000, 64, entries).RowNormalized()
	dst := mat.New(20000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RowNormalized().AxpyInto(dst, 0.5, x, 0.5, y, 1)
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := syntheticCSR(20000, 10, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.T()
	}
}

func BenchmarkBuildCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	entries := make([]Entry, 200000)
	for i := range entries {
		entries[i] = Entry{rng.Intn(20000), rng.Intn(20000), 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCSR(20000, 20000, entries)
	}
}
