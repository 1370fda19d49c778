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
// so sections can be composed on one stream (see bundle.go).
func writeCSR(w io.Writer, m *sparse.CSR) error {
	hdr := []uint64{magicCSR, uint64(m.R), uint64(m.C), uint64(m.NNZ())}
	if err := binary.Write(w, order, hdr); err != nil {
		return err
	}
	// One bulk write for the row pointers: binary.Write on a []uint64 hits
	// encoding/binary's fast path, vs a reflection round trip per element.
	rowPtr, cols, vals := m.Flat()
	if vals == nil { // a pattern's stored values are all 1
		vals = make([]float64, len(cols))
		for k := range vals {
			vals[k] = 1
		}
	}
	ptr := make([]uint64, len(rowPtr))
	for i, p := range rowPtr {
		ptr[i] = uint64(p)
	}
	if err := binary.Write(w, order, ptr); err != nil {
		return err
	}
	if err := binary.Write(w, order, cols); err != nil {
		return err
	}
	return binary.Write(w, order, vals)
}

// readCSR reads exactly one CSR section from r. It performs only exact-
// length reads (no readahead), so it is safe on a shared stream.
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
	ptr := make([]uint64, rows+1)
	if err := binary.Read(r, order, ptr); err != nil {
		return nil, fmt.Errorf("store: reading row pointers: %w", err)
	}
	rowPtr := make([]int, rows+1)
	for i, v := range ptr {
		rowPtr[i] = int(v)
	}
	colIdx := make([]int32, nnz)
	if err := binary.Read(r, order, colIdx); err != nil {
		return nil, fmt.Errorf("store: reading columns: %w", err)
	}
	vals := make([]float64, nnz)
	if err := binary.Read(r, order, vals); err != nil {
		return nil, fmt.Errorf("store: reading values: %w", err)
	}
	m, err := sparse.FromArrays(int(rows), int(cols), rowPtr, colIdx, vals)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
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

// readDense reads exactly one dense section from r with exact-length reads.
func readDense(r io.Reader) (*mat.Dense, error) {
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
	m := mat.New(int(rows), int(cols))
	if err := binary.Read(r, order, m.Data); err != nil {
		return nil, fmt.Errorf("store: reading dense data: %w", err)
	}
	return m, nil
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
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
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
