package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"pane/internal/core"
	"pane/internal/mat"
	"pane/internal/sparse"
)

// A Bundle is a complete serialized model: everything needed to serve
// queries AND keep applying dynamic updates after a restart. The seed
// repo persisted a model as three unrelated matrix files, which loses the
// graph (so no further updates), the hyperparameters (so no consistent
// warm restarts), and any notion of which version of a live model the
// files represent. A bundle is one file, written atomically, with:
//
//	magic "PNB1" + format version
//	model version (monotone counter bumped by every dynamic update)
//	core.Config (all hyperparameters)
//	optional per-node label sets
//	Xf, Xb, Y dense sections
//	adjacency and attribute CSR sections
//	optional serving-index configuration (format version 2; format
//	version 3 appends the shard layout; format version 4 the quantize
//	flag and re-rank multiplier; format version 5 the fp16 flag)
//	the int8 payload presence word (format version 4) and the binary16
//	one (format version 5), both always written 0
//
// A bundle carries the model, not its encodings. Formats 4 and 5 had
// room for the int8 and binary16 codes of the candidate matrices, and
// older writers filled it; the reader bounds those payloads' shapes and
// skips them, and a restored engine encodes its cells as a fresh one does.
//
// Serialization is deterministic: saving a loaded current-format bundle
// reproduces the input byte for byte, which snapshot tests rely on. (A
// loaded format-1 through format-4 bundle, or one carrying payloads,
// re-saves as a format-5 bundle without them, so only its model — not
// its bytes — survives the round trip.)
type Bundle struct {
	ModelVersion uint64
	Cfg          core.Config
	Xf, Xb       *mat.Paged
	Y            *mat.Dense
	Adj, Attr    *sparse.CSR
	Labels       [][]int
	// Index optionally records the serving-index configuration so a
	// restored server rebuilds the same index without re-specifying it.
	// The index structures themselves are never persisted — they are
	// derived state, cheaply rebuilt from the embeddings on load.
	Index *IndexMeta
}

// IndexMeta mirrors engine.IndexConfig for persistence (raw configured
// values, not resolved defaults, so round trips are exact). Thread counts
// are deliberately excluded: they are host properties, not model state.
type IndexMeta struct {
	IVF    bool
	NList  int
	NProbe int
	Seed   int64
	// Shards records the serving-shard count (format version 3); 0 means
	// unsharded, matching engine.IndexConfig's "values <= 1 mean one".
	Shards int
	// Quantize and Rerank record the SQ8 tier configuration (format
	// version 4): whether the quantized backends are built, and their
	// exact-re-rank survivor multiplier (0 means the index default).
	Quantize bool
	Rerank   int
	// FP16 records whether the half-precision tier is built (format
	// version 5).
	FP16 bool
}

const (
	magicBundle = 0x504E4231 // "PNB1"
	// bundleFormatV is the version written; versions 1 (no index
	// section), 2 (index section without the shard word), 3 (no
	// quantize/rerank words, no int8 payload word), and 4 (no fp16 flag,
	// no binary16 payload word) are still read.
	bundleFormatV = 5
)

// WriteBundle serializes b to w.
func WriteBundle(w io.Writer, b *Bundle) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint64{
		magicBundle, bundleFormatV, b.ModelVersion,
		uint64(b.Cfg.K),
		math.Float64bits(b.Cfg.Alpha),
		math.Float64bits(b.Cfg.Eps),
		uint64(b.Cfg.Threads),
		uint64(b.Cfg.CCDIters),
		uint64(b.Cfg.PowerIters),
		uint64(b.Cfg.Seed),
	}
	if err := binary.Write(bw, order, hdr); err != nil {
		return err
	}
	if err := writeLabels(bw, b.Labels); err != nil {
		return err
	}
	for _, m := range []*mat.Paged{b.Xf, b.Xb} {
		if err := writeDense(bw, m.Rows, m.Cols, m.Pages()...); err != nil {
			return err
		}
	}
	if err := writeDense(bw, b.Y.Rows, b.Y.Cols, b.Y.Data); err != nil {
		return err
	}
	for _, m := range []*sparse.CSR{b.Adj, b.Attr} {
		if err := writeCSR(bw, m); err != nil {
			return err
		}
	}
	if err := writeIndexMeta(bw, b.Index); err != nil {
		return err
	}
	// The int8 and binary16 payload presence words of formats 4 and 5,
	// always 0: the payloads are never written (see skipPayloads).
	if err := binary.Write(bw, order, []uint64{0, 0}); err != nil {
		return err
	}
	return bw.Flush()
}

// writeIndexMeta encodes the optional serving-index section: a presence
// flag, then the configuration words. Negative tuning values mean "use
// defaults" everywhere they are consumed, so they are normalized to 0
// here — every bundle this writes must be loadable, and readIndexMeta
// rejects negative words.
func writeIndexMeta(w io.Writer, im *IndexMeta) error {
	if im == nil {
		return binary.Write(w, order, uint64(0))
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	nlist, nprobe, shards, rerank := im.NList, im.NProbe, im.Shards, im.Rerank
	if nlist < 0 {
		nlist = 0
	}
	if nprobe < 0 {
		nprobe = 0
	}
	if shards < 0 {
		shards = 0
	}
	if rerank < 0 {
		rerank = 0
	}
	return binary.Write(w, order, []uint64{
		1, flag(im.IVF), uint64(nlist), uint64(nprobe), uint64(im.Seed), uint64(shards),
		flag(im.Quantize), uint64(rerank), flag(im.FP16),
	})
}

// readIndexMeta decodes the index section of a format-`version` bundle:
// version 2 carries four configuration words, version 3 appends the
// shard count (absent means 0, i.e. unsharded), version 4 the quantize
// flag and re-rank multiplier (absent means unquantized), version 5 the
// fp16 flag (absent means no half-precision tier).
func readIndexMeta(r io.Reader, version uint64) (*IndexMeta, error) {
	var present uint64
	if err := binary.Read(r, order, &present); err != nil {
		return nil, fmt.Errorf("store: reading index flag: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	nWords := 4
	if version >= 3 {
		nWords = 5
	}
	if version >= 4 {
		nWords = 7
	}
	if version >= 5 {
		nWords = 8
	}
	words := make([]uint64, nWords)
	if err := binary.Read(r, order, words); err != nil {
		return nil, fmt.Errorf("store: reading index config: %w", err)
	}
	im := &IndexMeta{
		IVF:    words[0] != 0,
		NList:  int(words[1]),
		NProbe: int(words[2]),
		Seed:   int64(words[3]),
	}
	if version >= 3 {
		im.Shards = int(words[4])
	}
	if version >= 4 {
		im.Quantize = words[5] != 0
		im.Rerank = int(words[6])
	}
	if version >= 5 {
		im.FP16 = words[7] != 0
	}
	if im.NList < 0 || im.NProbe < 0 || im.Shards < 0 || im.Rerank < 0 {
		return nil, fmt.Errorf("store: negative index config nlist=%d nprobe=%d shards=%d rerank=%d",
			im.NList, im.NProbe, im.Shards, im.Rerank)
	}
	return im, nil
}

// skipPayloads reads past the two optional code payloads a format-4 or
// format-5 bundle may carry — the int8 encodings (format 4 on) and the
// binary16 encodings (format 5) of the candidate matrices Z = Xb·G and Y.
// Those encodings are a function of the model, which a restored engine
// re-encodes as every build does, so the reader only bounds each shape
// and discards the bytes in bounded chunks: a corrupt shape claiming
// gigabytes costs an error, never an allocation. The int8 payload holds
// each row's float32 (scale, base) pair and one byte per element, the
// binary16 one two bytes per element.
func skipPayloads(r io.Reader, version uint64) error {
	sections := []struct {
		name                string
		rowBytes, elemBytes uint64
	}{{"quantized", 8, 1}, {"fp16", 0, 2}}
	if version < 5 {
		sections = sections[:1]
	}
	for _, sec := range sections {
		var present uint64
		if err := binary.Read(r, order, &present); err != nil {
			return fmt.Errorf("store: reading %s payload flag: %w", sec.name, err)
		}
		if present == 0 {
			continue
		}
		for range 2 { // the link matrix, then the attribute matrix
			shape := make([]uint64, 2)
			if err := binary.Read(r, order, shape); err != nil {
				return fmt.Errorf("store: reading %s payload shape: %w", sec.name, err)
			}
			const limit = 1 << 33 // same sanity bound as the dense sections
			if shape[0] > limit || shape[1] > limit ||
				(shape[1] != 0 && shape[0] > limit/shape[1]) { // product bound, overflow-safe
				return fmt.Errorf("store: implausible %s payload %dx%d", sec.name, shape[0], shape[1])
			}
			n := int64(shape[0]*sec.rowBytes + shape[0]*shape[1]*sec.elemBytes)
			if _, err := io.CopyN(io.Discard, r, n); err != nil {
				return fmt.Errorf("store: reading %s payload: %w", sec.name, err)
			}
		}
	}
	return nil
}

// ReadBundle deserializes a bundle written by WriteBundle and validates
// that its parts agree with each other.
func ReadBundle(r io.Reader) (*Bundle, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]uint64, 10)
	if err := binary.Read(br, order, hdr); err != nil {
		return nil, fmt.Errorf("store: reading bundle header: %w", err)
	}
	if hdr[0] != magicBundle {
		return nil, fmt.Errorf("store: bad bundle magic %#x", hdr[0])
	}
	if hdr[1] < 1 || hdr[1] > bundleFormatV {
		return nil, fmt.Errorf("store: unsupported bundle format version %d", hdr[1])
	}
	b := &Bundle{
		ModelVersion: hdr[2],
		Cfg: core.Config{
			K:          int(hdr[3]),
			Alpha:      math.Float64frombits(hdr[4]),
			Eps:        math.Float64frombits(hdr[5]),
			Threads:    int(hdr[6]),
			CCDIters:   int(hdr[7]),
			PowerIters: int(hdr[8]),
			Seed:       int64(hdr[9]),
		},
	}
	if err := b.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("store: bundle config: %w", err)
	}
	var err error
	if b.Labels, err = readLabels(br); err != nil {
		return nil, err
	}
	for _, dst := range []**mat.Paged{&b.Xf, &b.Xb} {
		m, err := readDense(br)
		if err != nil {
			return nil, err
		}
		*dst = mat.Page(m)
	}
	if b.Y, err = readDense(br); err != nil {
		return nil, err
	}
	for _, dst := range []**sparse.CSR{&b.Adj, &b.Attr} {
		if *dst, err = readCSR(br); err != nil {
			return nil, err
		}
	}
	if hdr[1] >= 2 {
		if b.Index, err = readIndexMeta(br, hdr[1]); err != nil {
			return nil, err
		}
	}
	if hdr[1] >= 4 {
		if err := skipPayloads(br, hdr[1]); err != nil {
			return nil, err
		}
	}
	return b, b.check()
}

// check cross-validates the bundle's sections.
func (b *Bundle) check() error {
	n, half := b.Xf.Rows, b.Xf.Cols
	switch {
	case b.Xb.Rows != n || b.Xb.Cols != half:
		return fmt.Errorf("store: bundle Xb %dx%d does not match Xf %dx%d", b.Xb.Rows, b.Xb.Cols, n, half)
	case b.Y.Cols != half:
		return fmt.Errorf("store: bundle Y width %d != k/2 = %d", b.Y.Cols, half)
	case 2*half != b.Cfg.K:
		return fmt.Errorf("store: bundle embedding width %d != config K %d", 2*half, b.Cfg.K)
	case b.Adj.R != n || b.Adj.C != n:
		return fmt.Errorf("store: bundle adjacency %dx%d != n=%d", b.Adj.R, b.Adj.C, n)
	case b.Attr.R != n || b.Attr.C != b.Y.Rows:
		return fmt.Errorf("store: bundle attribute matrix %dx%d != %dx%d", b.Attr.R, b.Attr.C, n, b.Y.Rows)
	case b.Labels != nil && len(b.Labels) != n:
		return fmt.Errorf("store: bundle labels length %d != n=%d", len(b.Labels), n)
	}
	return nil
}

// writeLabels encodes optional per-node label sets: a presence flag, then
// node count, per-node set sizes, and the flattened label values.
func writeLabels(w io.Writer, labels [][]int) error {
	if labels == nil {
		return binary.Write(w, order, uint64(0))
	}
	if err := binary.Write(w, order, uint64(1)); err != nil {
		return err
	}
	if err := binary.Write(w, order, uint64(len(labels))); err != nil {
		return err
	}
	counts := make([]uint64, len(labels))
	var total int
	for i, ls := range labels {
		counts[i] = uint64(len(ls))
		total += len(ls)
	}
	if err := binary.Write(w, order, counts); err != nil {
		return err
	}
	flat := make([]int64, 0, total)
	for _, ls := range labels {
		for _, l := range ls {
			flat = append(flat, int64(l))
		}
	}
	return binary.Write(w, order, flat)
}

func readLabels(r io.Reader) ([][]int, error) {
	var present uint64
	if err := binary.Read(r, order, &present); err != nil {
		return nil, fmt.Errorf("store: reading label flag: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	var n uint64
	if err := binary.Read(r, order, &n); err != nil {
		return nil, fmt.Errorf("store: reading label count: %w", err)
	}
	const limit = 1 << 31 // node count bound; keeps the counts slice small
	if n > limit {
		return nil, fmt.Errorf("store: implausible label count %d", n)
	}
	counts := make([]uint64, n)
	if err := binary.Read(r, order, counts); err != nil {
		return nil, fmt.Errorf("store: reading label sizes: %w", err)
	}
	// Bound each count and the running total inside the loop: a single
	// overflow-crafted count (or a sum that wraps uint64) must fail here,
	// not panic in make below.
	var total uint64
	for i, c := range counts {
		if c > 1<<33 {
			return nil, fmt.Errorf("store: implausible label size %d at node %d", c, i)
		}
		total += c
		if total > 1<<33 {
			return nil, fmt.Errorf("store: implausible label total %d", total)
		}
	}
	flat := make([]int64, total)
	if err := binary.Read(r, order, flat); err != nil {
		return nil, fmt.Errorf("store: reading labels: %w", err)
	}
	labels := make([][]int, n)
	off := 0
	for i, c := range counts {
		ls := make([]int, c)
		for j := range ls {
			ls[j] = int(flat[off])
			off++
		}
		labels[i] = ls
	}
	return labels, nil
}

// SaveBundleFile writes b to path atomically (temp file + rename), so a
// crash mid-snapshot never clobbers the previous good bundle.
func SaveBundleFile(path string, b *Bundle) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteBundle(w, b) })
}

// LoadBundleFile reads a bundle from path.
func LoadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBundle(f)
}
