package store

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pane/internal/mat"
	"pane/internal/sparse"
)

func randomCSR(rng *rand.Rand, r, c int, density float64) *sparse.CSR {
	var entries []sparse.Entry
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				entries = append(entries, sparse.Entry{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return sparse.NewCSR(r, c, entries)
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 37, 23, 0.2)
	var buf bytes.Buffer
	if err := writeCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := readCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.R != m.R || got.C != m.C || got.NNZ() != m.NNZ() {
		t.Fatal("shape mismatch after round trip")
	}
	if !got.ToDense().Equal(m.ToDense(), 0) {
		t.Fatal("contents changed")
	}
}

func TestCSREmpty(t *testing.T) {
	m := sparse.NewCSR(5, 3, nil)
	var buf bytes.Buffer
	if err := writeCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := readCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.R != 5 || got.C != 3 {
		t.Fatal("empty CSR round trip failed")
	}
}

func TestCSRBadMagic(t *testing.T) {
	var buf bytes.Buffer
	m := mat.New(2, 2)
	if err := writeDense(&buf, m.Rows, m.Cols, m.Data); err != nil {
		t.Fatal(err)
	}
	if _, err := readCSR(&buf); err == nil {
		t.Fatal("dense payload accepted as CSR")
	}
}

func TestCSRTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomCSR(rng, 10, 10, 0.3)
	var buf bytes.Buffer
	if err := writeCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := readCSR(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated CSR accepted")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := mat.New(19, 7)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := writeDense(&buf, m.Rows, m.Cols, m.Data); err != nil {
		t.Fatal(err)
	}
	got, err := readPaged(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense().Equal(m, 0) {
		t.Fatal("dense round trip changed values")
	}
}

func TestDenseBadMagic(t *testing.T) {
	var buf bytes.Buffer
	m := sparse.NewCSR(1, 1, []sparse.Entry{{Row: 0, Col: 0, Val: 1}})
	if err := writeCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := readPaged(&buf); err == nil {
		t.Fatal("CSR payload accepted as dense")
	}
}

// TestFileHelpers: saveAtomic leaves a complete artifact at the path and
// no temp file beside it, and reading a missing file fails.
func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	d := mat.New(6, 4)
	for i := range d.Data {
		d.Data[i] = rng.Float64()
	}
	dp := filepath.Join(dir, "m.dense")
	if err := saveAtomic(dp, func(w io.Writer) error { return writeDense(w, d.Rows, d.Cols, d.Data) }); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readPaged(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense().Equal(d, 0) {
		t.Fatal("dense file round trip failed")
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(names) != 0 {
		t.Fatalf("temp files left behind: %v", names)
	}
	if _, err := LoadBundleFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCSRColumnRangeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCSR(rng, 6, 6, 0.5)
	var buf bytes.Buffer
	if err := writeCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Corrupt a column index beyond the declared width.
	raw := buf.Bytes()
	// Header: 4x8 bytes; row pointers: 7x8 bytes; columns follow (int32).
	colOff := 32 + 56
	raw[colOff] = 0xFF
	raw[colOff+1] = 0xFF
	raw[colOff+2] = 0xFF
	raw[colOff+3] = 0x7F
	if _, err := readCSR(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt column index accepted")
	}
}

// TestCSRRowOrderValidation: a section whose row lists its columns out of
// order, or one twice, is refused on read.
func TestCSRRowOrderValidation(t *testing.T) {
	m := sparse.NewCSR(2, 4, []sparse.Entry{{Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 3, Val: 1}, {Row: 1, Col: 2, Val: 1}})
	var buf bytes.Buffer
	if err := writeCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Header: 4x8 bytes; row pointers: 3x8 bytes; columns follow (int32).
	colOff := 32 + 24
	for name, second := range map[string]byte{"swapped": 0, "repeated": 1} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[colOff], raw[colOff+4] = 3, second
		if _, err := readCSR(bytes.NewReader(raw)); err == nil {
			t.Fatalf("row with %s columns accepted", name)
		}
	}
}
