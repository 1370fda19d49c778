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
//	optional SQ8 quantized payload: per-row codes + scale/base vectors
//	of the candidate matrices (format version 4)
//	optional fp16 payload: binary16 codes of the candidate matrices
//	(format version 5)
//
// Serialization is deterministic: saving a loaded current-format bundle
// reproduces the input byte for byte, which snapshot tests rely on. (A
// loaded format-1 through format-4 bundle re-saves as format 5, so only
// its payload — not its bytes — survives the round trip.)
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
	// Quant optionally carries the SQ8 encodings of the candidate
	// matrices (format version 4). Like Index it is derived state — a
	// loader that drops it just re-quantizes, bit-identically — but
	// persisting it lets a restored server publish its quantized tier
	// without the extra pass, and gives the format a place to verify the
	// encoding survived the round trip.
	Quant *QuantPayload
	// Half optionally carries the binary16 encodings of the candidate
	// matrices (format version 5), with the same derived-state contract
	// as Quant: droppable (a loader just re-encodes, bit-identically),
	// but persisting it lets a restored server publish its fp16 tier
	// without the extra pass.
	Half *HalfPayload
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

// QuantizedMatrix is one candidate matrix's per-row SQ8 encoding as
// index.QuantizeRows produces it: Rows*Dim int8 codes row-major, and a
// (scale, base) float32 pair per row. Because the encoding is per-row,
// any contiguous row range of it equals the encoding of that shard's rows
// — which is how a sharded engine consumes one flat payload.
type QuantizedMatrix struct {
	Rows, Dim   int
	Codes       []int8
	Scale, Base []float32
}

// QuantPayload carries the SQ8 encodings of both candidate spaces: the
// link transform Z = Xb·G and the attribute matrix Y.
type QuantPayload struct {
	Links, Attrs QuantizedMatrix
}

// HalfMatrix is one candidate matrix's binary16 encoding as
// index.EncodeFP16Rows produces it: Rows*Dim uint16 code words,
// row-major. The encoding is per element, so any contiguous row range of
// it equals the encoding of that shard's rows — the same slice property
// the quantized payload has, and how a sharded engine consumes one flat
// payload.
type HalfMatrix struct {
	Rows, Dim int
	Codes     []uint16
}

// HalfPayload carries the binary16 encodings of both candidate spaces:
// the link transform Z = Xb·G and the attribute matrix Y.
type HalfPayload struct {
	Links, Attrs HalfMatrix
}

const (
	magicBundle = 0x504E4231 // "PNB1"
	// bundleFormatV is the version written; versions 1 (no index
	// section), 2 (index section without the shard word), 3 (no
	// quantize/rerank words, no quantized payload), and 4 (no fp16 flag
	// or payload) are still read.
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
	if err := writeQuant(bw, b.Quant); err != nil {
		return err
	}
	if err := writeHalf(bw, b.Half); err != nil {
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

// writeQuant encodes the optional quantized-payload section: a presence
// flag, then each matrix's shape, per-row parameters, and codes.
func writeQuant(w io.Writer, qp *QuantPayload) error {
	if qp == nil {
		return binary.Write(w, order, uint64(0))
	}
	if err := binary.Write(w, order, uint64(1)); err != nil {
		return err
	}
	for _, qm := range []*QuantizedMatrix{&qp.Links, &qp.Attrs} {
		if len(qm.Codes) != qm.Rows*qm.Dim || len(qm.Scale) != qm.Rows || len(qm.Base) != qm.Rows {
			return fmt.Errorf("store: quantized payload shape mismatch: %d codes, %d scales, %d bases for %dx%d",
				len(qm.Codes), len(qm.Scale), len(qm.Base), qm.Rows, qm.Dim)
		}
		if err := binary.Write(w, order, []uint64{uint64(qm.Rows), uint64(qm.Dim)}); err != nil {
			return err
		}
		for _, v := range [][]float32{qm.Scale, qm.Base} {
			if err := binary.Write(w, order, v); err != nil {
				return err
			}
		}
		if err := binary.Write(w, order, qm.Codes); err != nil {
			return err
		}
	}
	return nil
}

// readQuant decodes the quantized-payload section written by writeQuant.
func readQuant(r io.Reader) (*QuantPayload, error) {
	var present uint64
	if err := binary.Read(r, order, &present); err != nil {
		return nil, fmt.Errorf("store: reading quantized payload flag: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	qp := &QuantPayload{}
	for _, qm := range []*QuantizedMatrix{&qp.Links, &qp.Attrs} {
		shape := make([]uint64, 2)
		if err := binary.Read(r, order, shape); err != nil {
			return nil, fmt.Errorf("store: reading quantized payload shape: %w", err)
		}
		const limit = 1 << 33 // same sanity bound as the dense sections
		if shape[0] > limit || shape[1] > limit ||
			(shape[1] != 0 && shape[0] > limit/shape[1]) { // product bound, overflow-safe
			return nil, fmt.Errorf("store: implausible quantized payload %dx%d", shape[0], shape[1])
		}
		qm.Rows, qm.Dim = int(shape[0]), int(shape[1])
		qm.Scale = make([]float32, qm.Rows)
		qm.Base = make([]float32, qm.Rows)
		qm.Codes = make([]int8, qm.Rows*qm.Dim)
		for _, dst := range []interface{}{qm.Scale, qm.Base, qm.Codes} {
			if err := binary.Read(r, order, dst); err != nil {
				return nil, fmt.Errorf("store: reading quantized payload: %w", err)
			}
		}
	}
	return qp, nil
}

// writeHalf encodes the optional fp16-payload section: a presence flag,
// then each matrix's shape and binary16 code words.
func writeHalf(w io.Writer, hp *HalfPayload) error {
	if hp == nil {
		return binary.Write(w, order, uint64(0))
	}
	if err := binary.Write(w, order, uint64(1)); err != nil {
		return err
	}
	for _, hm := range []*HalfMatrix{&hp.Links, &hp.Attrs} {
		if len(hm.Codes) != hm.Rows*hm.Dim {
			return fmt.Errorf("store: fp16 payload shape mismatch: %d codes for %dx%d",
				len(hm.Codes), hm.Rows, hm.Dim)
		}
		if err := binary.Write(w, order, []uint64{uint64(hm.Rows), uint64(hm.Dim)}); err != nil {
			return err
		}
		if err := binary.Write(w, order, hm.Codes); err != nil {
			return err
		}
	}
	return nil
}

// readHalf decodes the fp16-payload section written by writeHalf.
func readHalf(r io.Reader) (*HalfPayload, error) {
	var present uint64
	if err := binary.Read(r, order, &present); err != nil {
		return nil, fmt.Errorf("store: reading fp16 payload flag: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	hp := &HalfPayload{}
	for _, hm := range []*HalfMatrix{&hp.Links, &hp.Attrs} {
		shape := make([]uint64, 2)
		if err := binary.Read(r, order, shape); err != nil {
			return nil, fmt.Errorf("store: reading fp16 payload shape: %w", err)
		}
		const limit = 1 << 33 // same sanity bound as the dense sections
		if shape[0] > limit || shape[1] > limit ||
			(shape[1] != 0 && shape[0] > limit/shape[1]) { // product bound, overflow-safe
			return nil, fmt.Errorf("store: implausible fp16 payload %dx%d", shape[0], shape[1])
		}
		hm.Rows, hm.Dim = int(shape[0]), int(shape[1])
		hm.Codes = make([]uint16, hm.Rows*hm.Dim)
		if err := binary.Read(r, order, hm.Codes); err != nil {
			return nil, fmt.Errorf("store: reading fp16 payload: %w", err)
		}
	}
	return hp, nil
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
		if b.Quant, err = readQuant(br); err != nil {
			return nil, err
		}
	}
	if hdr[1] >= 5 {
		if b.Half, err = readHalf(br); err != nil {
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
	if q := b.Quant; q != nil {
		// The link encoding covers Z = Xb·G (n rows, k/2 wide), the
		// attribute encoding Y itself.
		switch {
		case q.Links.Rows != n || q.Links.Dim != half:
			return fmt.Errorf("store: quantized link payload %dx%d does not match Z %dx%d",
				q.Links.Rows, q.Links.Dim, n, half)
		case q.Attrs.Rows != b.Y.Rows || q.Attrs.Dim != half:
			return fmt.Errorf("store: quantized attr payload %dx%d does not match Y %dx%d",
				q.Attrs.Rows, q.Attrs.Dim, b.Y.Rows, half)
		}
	}
	if h := b.Half; h != nil {
		// Same candidate spaces as the quantized payload: Links covers
		// Z = Xb·G, Attrs covers Y.
		switch {
		case h.Links.Rows != n || h.Links.Dim != half:
			return fmt.Errorf("store: fp16 link payload %dx%d does not match Z %dx%d",
				h.Links.Rows, h.Links.Dim, n, half)
		case h.Attrs.Rows != b.Y.Rows || h.Attrs.Dim != half:
			return fmt.Errorf("store: fp16 attr payload %dx%d does not match Y %dx%d",
				h.Attrs.Rows, h.Attrs.Dim, b.Y.Rows, half)
		}
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
