package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pane/internal/core"
	"pane/internal/mat"
	"pane/internal/sparse"
)

func testBundle(withLabels bool) *Bundle {
	rng := rand.New(rand.NewSource(7))
	randDense := func(r, c int) *mat.Dense {
		m := mat.New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	n, d, half := 5, 3, 2
	adj := sparse.NewCSR(n, n, []sparse.Entry{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 0, Val: 1}, {Row: 3, Col: 4, Val: 1},
	})
	attr := sparse.NewCSR(n, d, []sparse.Entry{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 1, Col: 2, Val: 2},
		{Row: 4, Col: 1, Val: 1},
	})
	b := &Bundle{
		ModelVersion: 42,
		Cfg:          core.Config{K: 2 * half, Alpha: 0.5, Eps: 0.015, Threads: 3, Seed: 9},
		Xf:           randDense(n, half).Paged(),
		Xb:           randDense(n, half).Paged(),
		Y:            randDense(d, half),
		Adj:          adj,
		Attr:         attr,
	}
	if withLabels {
		b.Labels = [][]int{{0}, {1, 2}, {}, {0, 1}, {}}
	}
	return b
}

func TestBundleRoundTrip(t *testing.T) {
	for _, withLabels := range []bool{false, true} {
		b := testBundle(withLabels)
		var buf bytes.Buffer
		if err := WriteBundle(&buf, b); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.ModelVersion != 42 {
			t.Fatalf("version %d", got.ModelVersion)
		}
		if got.Cfg != b.Cfg {
			t.Fatalf("config %+v != %+v", got.Cfg, b.Cfg)
		}
		for name, pair := range map[string][2]*mat.Dense{
			"Xf": {got.Xf.Dense(), b.Xf.Dense()}, "Xb": {got.Xb.Dense(), b.Xb.Dense()}, "Y": {got.Y, b.Y},
		} {
			if !pair[0].Equal(pair[1], 0) {
				t.Fatalf("%s not bit-equal after round trip", name)
			}
		}
		if got.Adj.NNZ() != b.Adj.NNZ() || got.Attr.NNZ() != b.Attr.NNZ() {
			t.Fatal("CSR nnz changed")
		}
		if withLabels {
			if len(got.Labels) != 5 || len(got.Labels[1]) != 2 || got.Labels[3][1] != 1 {
				t.Fatalf("labels %v", got.Labels)
			}
		} else if got.Labels != nil {
			t.Fatalf("labels should be nil, got %v", got.Labels)
		}

		// Deterministic: re-serializing the read bundle is byte-identical.
		var buf2 bytes.Buffer
		if err := WriteBundle(&buf2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("bundle serialization not deterministic")
		}
	}
}

func TestBundleIndexMetaRoundTrip(t *testing.T) {
	b := testBundle(false)
	b.Index = &IndexMeta{IVF: true, NList: 128, NProbe: 16, Seed: -7, Shards: 8}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index == nil || *got.Index != *b.Index {
		t.Fatalf("index meta %+v, want %+v", got.Index, b.Index)
	}
	var buf2 bytes.Buffer
	if err := WriteBundle(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("index meta serialization not deterministic")
	}
}

func TestBundleReadsFormatV1(t *testing.T) {
	// A v1 bundle is exactly a current bundle without the trailing index
	// and quantized-payload sections and with format word 1. Readers must
	// keep accepting it.
	b := testBundle(true)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v1 := append([]byte(nil), raw[:len(raw)-16]...) // drop index + quant presence words
	order.PutUint64(v1[8:16], 1)                    // format version field
	got, err := ReadBundle(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 bundle rejected: %v", err)
	}
	if got.Index != nil {
		t.Fatalf("v1 bundle grew an index section: %+v", got.Index)
	}
	if got.ModelVersion != b.ModelVersion || !got.Xf.Dense().Equal(b.Xf.Dense(), 0) {
		t.Fatal("v1 payload mangled")
	}
}

func TestBundleReadsFormatV2(t *testing.T) {
	// A v2 bundle carries the index section WITHOUT the trailing
	// shard/quantize/rerank words (and no quantized payload). Build one
	// from a current bundle by dropping those four words and rewriting
	// the format word; the reader must accept it and default the shard
	// count to 0 (unsharded).
	b := testBundle(false)
	b.Index = &IndexMeta{IVF: true, NList: 64, NProbe: 8, Seed: 5, Shards: 4}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v2 := append([]byte(nil), raw[:len(raw)-32]...) // drop shard+quantize+rerank+quant words
	order.PutUint64(v2[8:16], 2)                    // format version field
	got, err := ReadBundle(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 bundle rejected: %v", err)
	}
	want := *b.Index
	want.Shards = 0
	if got.Index == nil || *got.Index != want {
		t.Fatalf("v2 index meta %+v, want %+v", got.Index, want)
	}
	if !got.Xf.Dense().Equal(b.Xf.Dense(), 0) {
		t.Fatal("v2 payload mangled")
	}
}

func TestBundleReadsFormatV3(t *testing.T) {
	// A v3 bundle ends after the shard word: no quantize/rerank words, no
	// quantized payload. The reader must default both to "unquantized".
	b := testBundle(false)
	b.Index = &IndexMeta{IVF: true, NList: 64, NProbe: 8, Seed: 5, Shards: 4, Quantize: true, Rerank: 6}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v3 := append([]byte(nil), raw[:len(raw)-24]...) // drop quantize+rerank+quant words
	order.PutUint64(v3[8:16], 3)                    // format version field
	got, err := ReadBundle(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("v3 bundle rejected: %v", err)
	}
	want := *b.Index
	want.Quantize, want.Rerank = false, 0
	if got.Index == nil || *got.Index != want {
		t.Fatalf("v3 index meta %+v, want %+v", got.Index, want)
	}
	if !got.Xf.Dense().Equal(b.Xf.Dense(), 0) {
		t.Fatal("v3 payload mangled")
	}
}

// payloads encodes the code payload sections of formats 4 and 5 as the
// writers that filled them laid them out, for b's link space (n rows) and
// attribute space (d rows), k/2 wide: the int8 section (a presence word,
// then per matrix its shape, float32 scales, float32 bases and int8
// codes) and, when halves is set, the binary16 one (a presence word, then
// per matrix its shape and uint16 codes). The values are arbitrary bit
// patterns: a reader must not interpret them.
func payloads(t *testing.T, b *Bundle, halves bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&buf, order, v); err != nil {
			t.Fatal(err)
		}
	}
	half := b.Xf.Cols
	shapes := [][]uint64{{uint64(b.Xf.Rows), uint64(half)}, {uint64(b.Y.Rows), uint64(half)}}
	put(uint64(1))
	for _, sh := range shapes {
		rows := int(sh[0])
		codes, scale, base := make([]int8, rows*half), make([]float32, rows), make([]float32, rows)
		for i := range codes {
			codes[i] = int8(i*7 - 100)
		}
		for i := range scale {
			scale[i], base[i] = float32(i)*0.25, float32(i)-1.5
		}
		put(sh)
		put(scale)
		put(base)
		put(codes)
	}
	if halves {
		put(uint64(1))
		for _, sh := range shapes {
			codes := make([]uint16, int(sh[0])*half)
			for i := range codes {
				codes[i] = uint16(i*0x1234 + 0x3C00)
			}
			put(sh)
			put(codes)
		}
	}
	return buf.Bytes()
}

// TestBundleReadsFormatV4 and TestBundleReadsFormatV5Payloads: bundles
// that carry code payloads — format 4 its int8 payload and no fp16 flag,
// format 5 both payloads — load with every model section equal to the
// original's, and re-save as the current writer writes the model: without
// payloads, byte for byte.
func TestBundleReadsFormatV4(t *testing.T) {
	b := testBundle(true)
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, Quantize: true, Rerank: 3}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Current tail: [fp16 flag word][int8 payload word][binary16 payload
	// word]. Format 4 ends its index section before the fp16 flag and the
	// bundle with the int8 payload.
	v4 := append(append([]byte(nil), raw[:len(raw)-24]...), payloads(t, b, false)...)
	order.PutUint64(v4[8:16], 4) // format version field
	sameModel(t, "v4", v4, raw)
}

func TestBundleReadsFormatV5Payloads(t *testing.T) {
	b := testBundle(true)
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, Quantize: true, Rerank: 3, FP16: true}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v5 := append(append([]byte(nil), raw[:len(raw)-16]...), payloads(t, b, true)...)
	sameModel(t, "v5", v5, raw)
}

// sameModel reads bundle bytes in and asserts that re-saving them gives
// want, the current writer's bytes for the same model.
func sameModel(t *testing.T, label string, in, want []byte) {
	t.Helper()
	got, err := ReadBundle(bytes.NewReader(in))
	if err != nil {
		t.Fatalf("%s bundle rejected: %v", label, err)
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s bundle's model sections differ from the original's", label)
	}
}

// TestBundleSkipsPayloadsWithoutAllocating: the reader bounds a payload's
// shape and discards its bytes in small chunks. A tiny model whose int8
// payload header claims 2^30 codes and then ends is an error that
// allocates well under 1 MiB (the read buffer is the caller's here, so
// the count is the reader's own), and so is a payload cut short anywhere
// or a shape past the sanity bound.
func TestBundleSkipsPayloadsWithoutAllocating(t *testing.T) {
	b := testBundle(false)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()[:buf.Len()-16] // drop the payload presence words
	withTail := func(words ...uint64) []byte {
		out := append([]byte(nil), head...)
		for _, w := range words {
			out = order.AppendUint64(out, w)
		}
		return out
	}

	huge := withTail(1, 1<<15, 1<<15)
	br := bufio.NewReaderSize(bytes.NewReader(huge), 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBundle(br)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a payload claiming 1 GiB and then ending was accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("skipping a 1 GiB payload claim allocated %d bytes", d)
	}

	if _, err := ReadBundle(bytes.NewReader(withTail(1, 1<<34, 1))); err == nil {
		t.Fatal("a payload shape past the sanity bound was accepted")
	}
	full := append(append([]byte(nil), head...), payloads(t, b, true)...)
	for _, cut := range []int{len(head) + 4, len(head) + 8, len(head) + 30, len(full) - 100, len(full) - 1} {
		if _, err := ReadBundle(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("a payload cut at %d of %d bytes was accepted", cut, len(full))
		}
	}
}

// TestSectionClaimsAllocateOnArrival: a bundle whose dense header, and
// then one whose CSR header (or label count), claims about 2^27 entries (1 GiB of float64)
// over a body of a few dozen bytes is refused after allocating under
// 1 MiB (the read buffer is the caller's, as above). Sections are read in
// bounded chunks that grow as bytes arrive, so neither a claimed shape nor
// a claimed row length sizes an allocation: one row may hold all 2^27.
func TestSectionClaimsAllocateOnArrival(t *testing.T) {
	const claim = 1 << 27
	b := testBundle(false)
	var full bytes.Buffer
	if err := WriteBundle(&full, b); err != nil {
		t.Fatal(err)
	}
	n, half, d := b.Xf.Rows, b.Xf.Cols, b.Y.Rows
	denseAt := 8 * (10 + 1)                  // the bundle header, the label flag
	csrAt := denseAt + 3*24 + 8*half*(2*n+d) // Xf, Xb and Y
	claimAt := func(at int, words ...uint64) []byte {
		out := append([]byte(nil), full.Bytes()[:at]...)
		for _, w := range words {
			out = order.AppendUint64(out, w)
		}
		return append(out, make([]byte, 40)...)
	}
	wideRow := []uint64{magicCSR, uint64(n), uint64(n), claim, 0}
	for range n {
		wideRow = append(wideRow, claim)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"label count", claimAt(denseAt-8, 1, claim)},
		{"dense rows", claimAt(denseAt, magicDense, claim/64, 64)},
		{"dense row", claimAt(denseAt, magicDense, 1, claim)},
		{"CSR rows", claimAt(csrAt, magicCSR, claim, claim, claim)},
		{"CSR row", claimAt(csrAt, wideRow...)},
	} {
		br := bufio.NewReaderSize(bytes.NewReader(c.data), 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBundle(br)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a section claiming 2^27 entries and then ending was accepted", c.name)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a >= 1<<20 {
			t.Fatalf("%s: refusing a claim of 2^27 entries allocated %d bytes", c.name, a)
		}
	}
}

func TestBundleFileAtomicSave(t *testing.T) {
	b := testBundle(true)
	path := filepath.Join(t.TempDir(), "m.pane")
	if err := SaveBundleFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion != b.ModelVersion || !got.Xf.Dense().Equal(b.Xf.Dense(), 0) {
		t.Fatal("file round trip changed the bundle")
	}
}

func TestBundleRejectsCorruption(t *testing.T) {
	b := testBundle(false)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Bad format version.
	bad = append([]byte(nil), raw...)
	bad[8] = 99
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("future format version accepted")
	}
	// Truncation anywhere must error, never panic.
	for _, cut := range []int{10, len(raw) / 2, len(raw) - 3} {
		if _, err := ReadBundle(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Invalid config (K = 0) must be rejected by validation.
	bad = append([]byte(nil), raw...)
	for i := 24; i < 32; i++ { // K field, little-endian
		bad[i] = 0
	}
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("zero K accepted")
	}
}

// TestBundleRejectsNonUnitAdjacency: the graph is unweighted, so a bundle
// storing an adjacency value other than 1 is refused, and one storing 1s
// loads as a pattern.
func TestBundleRejectsNonUnitAdjacency(t *testing.T) {
	b := testBundle(false)
	b.Adj = sparse.NewCSR(b.Adj.R, b.Adj.C, []sparse.Entry{{Row: 0, Col: 1, Val: 1}, {Row: 2, Col: 0, Val: 0.5}})
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(&buf); err == nil || !strings.Contains(err.Error(), "adjacency") {
		t.Fatalf("adjacency value 0.5: error %v, want one naming the adjacency", err)
	}
	buf.Reset()
	if err := WriteBundle(&buf, testBundle(false)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, vals := got.Adj.Row(0); vals != nil {
		t.Fatal("the adjacency loaded with its values")
	}
}

// TestBundleRejectsNonFiniteFactors: a NaN or an infinity in Xb or Y
// fails ReadBundle with an error naming the matrix and the row.
func TestBundleRejectsNonFiniteFactors(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  int
		v    float64
	}{{"Xb", 3, math.NaN()}, {"Xb", 0, math.Inf(1)}, {"Y", 2, math.NaN()}, {"Y", 1, math.Inf(1)}} {
		b := testBundle(false)
		if tc.name == "Xb" {
			xb := b.Xb.Dense()
			xb.Row(tc.row)[1] = tc.v
			b.Xb = xb.Paged()
		} else {
			b.Y.Row(tc.row)[0] = tc.v
		}
		var buf bytes.Buffer
		if err := WriteBundle(&buf, b); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBundle(&buf)
		if err == nil {
			t.Fatalf("%s row %d = %v accepted", tc.name, tc.row, tc.v)
		}
		if want := fmt.Sprintf("%s row %d", tc.name, tc.row); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s row %d = %v: error %q does not name %q", tc.name, tc.row, tc.v, err, want)
		}
	}
}

func TestReadLabelsRejectsOverflowingCounts(t *testing.T) {
	// Per-node counts of 2^63 sum (mod 2^64) to 0: a naive total check
	// passes and make() panics. The reader must error gracefully instead.
	var buf bytes.Buffer
	for _, v := range []uint64{1, 2, 1 << 63, 1 << 63} { // present, n, counts...
		if err := binaryWriteU64(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readLabels(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("overflowing label counts accepted")
	}
	// A giant node count must be rejected before allocating the counts slice.
	buf.Reset()
	for _, v := range []uint64{1, 1 << 40} {
		if err := binaryWriteU64(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readLabels(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("giant label count accepted")
	}
}

func binaryWriteU64(buf *bytes.Buffer, v uint64) error {
	var b [8]byte
	order.PutUint64(b[:], v)
	_, err := buf.Write(b[:])
	return err
}
