package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
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
		Xf:           mat.Page(randDense(n, half)),
		Xb:           mat.Page(randDense(n, half)),
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
	if got.Index != nil || got.Quant != nil {
		t.Fatalf("v1 bundle grew sections: %+v %+v", got.Index, got.Quant)
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
	if got.Quant != nil {
		t.Fatalf("v3 bundle grew a quantized payload")
	}
	if !got.Xf.Dense().Equal(b.Xf.Dense(), 0) {
		t.Fatal("v3 payload mangled")
	}
}

func TestBundleQuantPayloadRoundTrip(t *testing.T) {
	b := testBundle(false)
	n, d, half := b.Xf.Rows, b.Y.Rows, b.Xf.Cols
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, Quantize: true, Rerank: 3}
	mk := func(rows int) QuantizedMatrix {
		qm := QuantizedMatrix{Rows: rows, Dim: half,
			Codes: make([]int8, rows*half),
			Scale: make([]float32, rows), Base: make([]float32, rows)}
		for i := range qm.Codes {
			qm.Codes[i] = int8(i*7 - 100)
		}
		for i := range qm.Scale {
			qm.Scale[i] = float32(i) * 0.25
			qm.Base[i] = float32(i) - 1.5
		}
		return qm
	}
	b.Quant = &QuantPayload{Links: mk(n), Attrs: mk(d)}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Quant == nil {
		t.Fatal("payload lost")
	}
	for name, pair := range map[string][2]QuantizedMatrix{
		"links": {got.Quant.Links, b.Quant.Links}, "attrs": {got.Quant.Attrs, b.Quant.Attrs},
	} {
		g, w := pair[0], pair[1]
		if g.Rows != w.Rows || g.Dim != w.Dim {
			t.Fatalf("%s shape %dx%d", name, g.Rows, g.Dim)
		}
		for i := range w.Codes {
			if g.Codes[i] != w.Codes[i] {
				t.Fatalf("%s code %d differs", name, i)
			}
		}
		for i := range w.Scale {
			if g.Scale[i] != w.Scale[i] || g.Base[i] != w.Base[i] {
				t.Fatalf("%s params %d differ", name, i)
			}
		}
	}
	// Deterministic resave.
	var buf2 bytes.Buffer
	if err := WriteBundle(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("quantized payload serialization not deterministic")
	}
	// A payload whose shape disagrees with the model must be rejected.
	b.Quant.Links.Rows = n + 1
	b.Quant.Links.Codes = make([]int8, (n+1)*half)
	b.Quant.Links.Scale = make([]float32, n+1)
	b.Quant.Links.Base = make([]float32, n+1)
	var bad bytes.Buffer
	if err := WriteBundle(&bad, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("mismatched quantized payload accepted")
	}
}

func TestBundleReadsFormatV4(t *testing.T) {
	// A v4 bundle carries the quantize/rerank words and the quantized
	// payload but predates the fp16 flag and half payload. Build one from
	// a current bundle by cutting the fp16 flag word out of the index
	// section, dropping the trailing half-presence word, and rewriting the
	// format word; the reader must accept it with FP16 false and no half
	// payload.
	b := testBundle(false)
	n, d, half := b.Xf.Rows, b.Y.Rows, b.Xf.Cols
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, Quantize: true, Rerank: 3}
	qm := func(rows int) QuantizedMatrix {
		m := QuantizedMatrix{Rows: rows, Dim: half,
			Codes: make([]int8, rows*half),
			Scale: make([]float32, rows), Base: make([]float32, rows)}
		for i := range m.Codes {
			m.Codes[i] = int8(i*3 - 7)
		}
		for i := range m.Scale {
			m.Scale[i] = float32(i) * 0.5
			m.Base[i] = float32(i)
		}
		return m
	}
	b.Quant = &QuantPayload{Links: qm(n), Attrs: qm(d)}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Current layout tail: [fp16 flag word][quant section][half word].
	var qbuf bytes.Buffer
	if err := writeQuant(&qbuf, b.Quant); err != nil {
		t.Fatal(err)
	}
	cut := len(raw) - 8 - qbuf.Len() - 8 // start of the fp16 flag word
	v4 := append([]byte(nil), raw[:cut]...)
	v4 = append(v4, raw[cut+8:len(raw)-8]...) // keep quant, drop half word
	order.PutUint64(v4[8:16], 4)              // format version field
	got, err := ReadBundle(bytes.NewReader(v4))
	if err != nil {
		t.Fatalf("v4 bundle rejected: %v", err)
	}
	want := *b.Index
	want.FP16 = false
	if got.Index == nil || *got.Index != want {
		t.Fatalf("v4 index meta %+v, want %+v", got.Index, want)
	}
	if got.Half != nil {
		t.Fatal("v4 bundle grew an fp16 payload")
	}
	if got.Quant == nil || got.Quant.Links.Rows != n || got.Quant.Attrs.Rows != d {
		t.Fatalf("v4 quantized payload mangled: %+v", got.Quant)
	}
	for i, c := range b.Quant.Links.Codes {
		if got.Quant.Links.Codes[i] != c {
			t.Fatalf("v4 quant code %d differs", i)
		}
	}
	if !got.Xf.Dense().Equal(b.Xf.Dense(), 0) {
		t.Fatal("v4 payload mangled")
	}
}

func TestBundleHalfPayloadRoundTrip(t *testing.T) {
	b := testBundle(false)
	n, d, half := b.Xf.Rows, b.Y.Rows, b.Xf.Cols
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, FP16: true}
	mk := func(rows int) HalfMatrix {
		hm := HalfMatrix{Rows: rows, Dim: half, Codes: make([]uint16, rows*half)}
		for i := range hm.Codes {
			hm.Codes[i] = uint16(i*0x1234 + 0x3C00) // arbitrary bit patterns incl. high bits
		}
		return hm
	}
	b.Half = &HalfPayload{Links: mk(n), Attrs: mk(d)}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Half == nil {
		t.Fatal("fp16 payload lost")
	}
	if got.Index == nil || !got.Index.FP16 {
		t.Fatalf("fp16 flag lost: %+v", got.Index)
	}
	for name, pair := range map[string][2]HalfMatrix{
		"links": {got.Half.Links, b.Half.Links}, "attrs": {got.Half.Attrs, b.Half.Attrs},
	} {
		g, w := pair[0], pair[1]
		if g.Rows != w.Rows || g.Dim != w.Dim {
			t.Fatalf("%s shape %dx%d", name, g.Rows, g.Dim)
		}
		for i := range w.Codes {
			if g.Codes[i] != w.Codes[i] {
				t.Fatalf("%s code %d differs", name, i)
			}
		}
	}
	// Deterministic resave.
	var buf2 bytes.Buffer
	if err := WriteBundle(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("fp16 payload serialization not deterministic")
	}
	// A payload whose shape disagrees with the model must be rejected.
	b.Half.Links.Rows = n + 1
	b.Half.Links.Codes = make([]uint16, (n+1)*half)
	var bad bytes.Buffer
	if err := WriteBundle(&bad, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("mismatched fp16 payload accepted")
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
