// Package store provides compact binary serialization for whole model
// bundles — the CSR graph and the embedding matrices in one file — so a
// server can persist a 10⁸-edge graph or a 10⁷-row embedding without the
// 3-4x size and parse cost of the text formats. The format is
// little-endian, versioned, and self-describing enough to fail loudly on
// corruption. A model bundle persists the model alone: the int8
// and binary16 code payloads that format-4 and format-5 bundles could
// carry are read and skipped, never written (see Bundle).
package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"pane/internal/mat"
	"pane/internal/sparse"
)

// Magic numbers identify the artifact kinds.
const (
	magicCSR   = 0x43535231 // "CSR1"
	magicDense = 0x444E5331 // "DNS1"
)

var order = binary.LittleEndian

// writeCSR writes the CSR section to w without buffering or flushing,
// so sections can be composed on one stream (see bundle.go): the header
// and row pointers, then the columns and the values page by page.
func writeCSR(w io.Writer, m *sparse.CSR) error {
	hdr := []uint64{magicCSR, uint64(m.R), uint64(m.C), uint64(m.NNZ()), 0}
	for i := range m.R {
		cols, _ := m.Row(i)
		hdr = append(hdr, hdr[len(hdr)-1]+uint64(len(cols)))
	}
	if err := binary.Write(w, order, hdr); err != nil {
		return err
	}
	for cols := range m.Pages() {
		if err := binary.Write(w, order, cols); err != nil {
			return err
		}
	}
	for cols, vals := range m.Pages() {
		if vals == nil { // a pattern's stored values are all 1
			vals = slices.Repeat([]float64{1}, len(cols))
		}
		if err := binary.Write(w, order, vals); err != nil {
			return err
		}
	}
	return nil
}

// readCSR reads exactly one CSR section from r. It performs only exact-
// length reads (no readahead), so it is safe on a shared stream, and it
// allocates only as the section's bytes arrive (see readN), writing the
// columns and values straight onto the matrix's pages.
func readCSR(r io.Reader) (*sparse.CSR, error) {
	hdr := make([]uint64, 4)
	if err := binary.Read(r, order, hdr); err != nil {
		return nil, fmt.Errorf("store: reading CSR header: %w", err)
	}
	magic, rows, cols, nnz := hdr[0], hdr[1], hdr[2], hdr[3]
	if magic != magicCSR {
		return nil, fmt.Errorf("store: bad CSR magic %#x", magic)
	}
	const limit = 1 << 33 // 8G entries: sanity bound against corruption
	if rows > limit || cols > limit || nnz > limit {
		return nil, fmt.Errorf("store: implausible CSR dimensions %dx%d nnz=%d", rows, cols, nnz)
	}
	ptr, err := readN[uint64](r, int(rows)+1)
	if err != nil {
		return nil, fmt.Errorf("store: reading row pointers: %w", err)
	}
	if ptr[rows] != nnz {
		return nil, fmt.Errorf("store: CSR row pointers end at %d, want nnz %d", ptr[rows], nnz)
	}
	m, err := sparse.FromArrays(int(rows), int(cols), ptr,
		func(n int) ([]int32, error) { return readN[int32](r, n) },
		func(n int) ([]float64, error) { return readN[float64](r, n) })
	if err != nil {
		return nil, fmt.Errorf("store: reading CSR: %w", err)
	}
	return m, nil
}

// writeDense writes a rows x cols dense section to w without buffering or
// flushing; pages are its row-major data in order, in any number of
// pieces — one for a mat.Dense, the row pages of a mat.Paged.
func writeDense(w io.Writer, rows, cols int, pages ...[]float64) error {
	hdr := []uint64{magicDense, uint64(rows), uint64(cols)}
	if err := binary.Write(w, order, hdr); err != nil {
		return err
	}
	for _, pg := range pages {
		if err := binary.Write(w, order, pg); err != nil {
			return err
		}
	}
	return nil
}

// readPaged reads exactly one dense section from r onto pages with the
// exact-length reads of readN, so only what arrives is allocated.
func readPaged(r io.Reader) (*mat.Paged, error) {
	hdr := make([]uint64, 3)
	if err := binary.Read(r, order, hdr); err != nil {
		return nil, fmt.Errorf("store: reading dense header: %w", err)
	}
	magic, rows, cols := hdr[0], hdr[1], hdr[2]
	if magic != magicDense {
		return nil, fmt.Errorf("store: bad dense magic %#x", magic)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 || rows*cols > 1<<33 {
		return nil, fmt.Errorf("store: implausible dense dimensions %dx%d", rows, cols)
	}
	m, err := mat.ReadPaged(int(rows), int(cols), func(n int) ([]float64, error) { return readN[float64](r, n) })
	if err != nil {
		return nil, fmt.Errorf("store: reading dense data: %w", err)
	}
	return m, nil
}

// readChunk is the most a read asks of the stream at once, in bytes.
const readChunk = 1 << 18

// readN reads n little-endian values from r in reads of at most readChunk
// bytes, into a slice that starts at one read's size and doubles up to n
// as the values arrive: a header claiming more than the body holds costs
// an error after allocating at most twice what the body held, not what
// the header claimed.
func readN[T int32 | int64 | uint64 | float64](r io.Reader, n int) ([]T, error) {
	var zero T
	step := readChunk / binary.Size(zero)
	out := make([]T, 0, min(n, step))
	for len(out) < n {
		if len(out) == cap(out) {
			out = append(make([]T, 0, min(n, 2*cap(out))), out...)
		}
		part := out[len(out):min(cap(out), len(out)+step)]
		if err := binary.Read(r, order, part); err != nil {
			return nil, err
		}
		out = out[:len(out)+len(part)]
	}
	return out, nil
}

// saveAtomic writes via a temp file in path's directory and renames it
// into place, so readers never observe a partially written artifact. The
// temp name is unique per writer (os.CreateTemp), so concurrent saves to
// the same path never interleave into one torn file — whichever rename
// lands last wins with a complete artifact. The temp file is synced before
// the rename and the directory after it, so once saveAtomic returns the
// artifact survives a power cut — which lets a caller delete what the
// artifact supersedes (engine.Snapshot compacts the write-ahead log).
func saveAtomic(path string, write func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err = f.Chmod(0o644); err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs directory dir, making a rename or removal in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
