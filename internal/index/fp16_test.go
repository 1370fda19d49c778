package index

import (
	"math"
	"math/rand"
	"testing"

	"pane/internal/mat"
)

// TestFP16RoundTripExhaustive decodes every finite binary16 pattern and
// demands the encode maps it back to itself — decode is exact and the
// decoded value is trivially the nearest half to itself. Infinities
// round-trip too; NaN payloads normalize to the canonical quiet NaN.
func TestFP16RoundTripExhaustive(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		v := FP16ToF64(uint16(h))
		got := F64ToFP16(v)
		if math.IsNaN(v) {
			if got&0x7fff != 0x7e00 {
				t.Fatalf("NaN half %#04x re-encoded to %#04x", h, got)
			}
			continue
		}
		if got != uint16(h) {
			t.Fatalf("half %#04x decodes to %v, re-encodes to %#04x", h, v, got)
		}
	}
}

// TestFP16RoundToNearestEven sweeps every pair of adjacent positive
// finite halves: the exact midpoint (representable in float64, halves
// have few mantissa bits) must round to the pair's even member, and a
// one-ulp nudge either side must round to the respective neighbor.
func TestFP16RoundToNearestEven(t *testing.T) {
	for h := uint16(0); h < 0x7bff; h++ {
		lo, hi := FP16ToF64(h), FP16ToF64(h+1)
		mid := (lo + hi) / 2
		wantMid := h
		if h&1 == 1 {
			wantMid = h + 1
		}
		if got := F64ToFP16(mid); got != wantMid {
			t.Fatalf("mid(%#04x, %#04x) = %v encoded to %#04x, want %#04x", h, h+1, mid, got, wantMid)
		}
		if got := F64ToFP16(math.Nextafter(mid, lo)); got != h {
			t.Fatalf("below-mid of %#04x encoded to %#04x", h, got)
		}
		if got := F64ToFP16(math.Nextafter(mid, hi)); got != h+1 {
			t.Fatalf("above-mid of %#04x encoded to %#04x", h+1, got)
		}
	}
}

// TestFP16EncodeBoundaries pins the range edges: overflow to infinity at
// the 65520 midpoint (ties-to-even past the largest finite half), the
// subnormal/zero boundary at 2^-25, and signed zeros.
func TestFP16EncodeBoundaries(t *testing.T) {
	cases := []struct {
		x    float64
		want uint16
	}{
		{0, 0x0000},
		{math.Copysign(0, -1), 0x8000},
		{65504, 0x7bff},                                 // largest finite half
		{65519.999999, 0x7bff},                          // below the overflow midpoint
		{65520, 0x7c00},                                 // midpoint: even side is Inf
		{1e300, 0x7c00},                                 // far overflow
		{-1e300, 0xfc00},                                //
		{math.Inf(1), 0x7c00},                           //
		{math.Inf(-1), 0xfc00},                          //
		{math.Ldexp(1, -24), 0x0001},                    // smallest subnormal
		{math.Ldexp(1, -25), 0x0000},                    // tie with zero: even side is zero
		{math.Nextafter(math.Ldexp(1, -25), 1), 0x0001}, // just above the tie
		{-math.Ldexp(1, -24), 0x8001},                   //
		{math.Ldexp(1, -14), 0x0400},                    // smallest normal
		{math.Ldexp(1023, -24), 0x03ff},                 // largest subnormal
		{1, 0x3c00},
		{-2, 0xc000},
	}
	for _, tc := range cases {
		if got := F64ToFP16(tc.x); got != tc.want {
			t.Fatalf("F64ToFP16(%v) = %#04x, want %#04x", tc.x, got, tc.want)
		}
	}
	if got := F64ToFP16(math.NaN()); got&0x7fff != 0x7e00 {
		t.Fatalf("F64ToFP16(NaN) = %#04x", got)
	}
}

// fillHalfFriendly fills dst with NaN-free values spanning the half
// range: ordinary magnitudes, values that overflow or denormalize in
// half, and signed zeros — the encode paths a real matrix exercises.
func fillHalfFriendly(rng *rand.Rand, dst []float64) {
	for i := range dst {
		switch rng.Intn(8) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = math.Copysign(0, -1)
		case 2:
			dst[i] = math.Ldexp(rng.Float64(), -20) * signOf(rng) // half-subnormal range
		case 3:
			dst[i] = (1 + rng.Float64()) * 60000 * signOf(rng) // near/over half max
		default:
			dst[i] = (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(12)-6)
		}
	}
}

func signOf(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// TestDotFP16MatchesGenericExhaustive drives the dispatched dotFP16
// against DotFP16Generic over every length 0..129 at every slice offset
// 0..3 and demands bitwise equality — the fp16 twin of the mat kernel
// sweeps. On noasm or non-F16C builds both sides run the generic kernel.
func TestDotFP16MatchesGenericExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const maxN, maxOff = 129, 4
	backQ := make([]float64, maxN+maxOff)
	backV := make([]float64, maxN+maxOff)
	backC := make([]uint16, maxN+maxOff)
	for n := 0; n <= maxN; n++ {
		for offQ := 0; offQ < maxOff; offQ++ {
			for offC := 0; offC < maxOff; offC++ {
				fillHalfFriendly(rng, backQ)
				fillHalfFriendly(rng, backV)
				for i, v := range backV {
					backC[i] = F64ToFP16(v)
				}
				q := backQ[offQ : offQ+n]
				c := backC[offC : offC+n]
				got := dotFP16(q, c)
				want := DotFP16Generic(q, c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dotFP16(n=%d, offQ=%d, offC=%d) = %x, generic %x", n, offQ, offC, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestFP16RecallNoRerank is the tier's serving claim: at embedding-shaped
// dynamic ranges the half-precision scan recovers the exact top-10 at ≥
// 0.999 recall with NO re-rank — the floor the CI perf gate also
// enforces on the committed bench.
func TestFP16RecallNoRerank(t *testing.T) {
	const n, dim, k, nq = 20000, 16, 10, 100
	data := mixture(n, dim, 64, 45)
	queries := mixture(nq, dim, 64, 46)
	exact := NewExact(data, 4)
	fp := NewFP16(data, 4)
	var hit, total int
	for qi := 0; qi < nq; qi++ {
		q := queries.Row(qi)
		want := exact.Search(q, k, Options{})
		got := fp.Search(q, k, Options{})
		in := make(map[int]bool, len(want))
		for _, s := range want {
			in[s.ID] = true
		}
		for _, s := range got {
			if in[s.ID] {
				hit++
			}
		}
		total += len(want)
	}
	recall := float64(hit) / float64(total)
	t.Logf("fp16 recall@%d = %.4f (no re-rank)", k, recall)
	if recall < 0.999 {
		t.Fatalf("fp16 recall@%d = %.4f < 0.999", k, recall)
	}
}

// TestFP16SearchMatchesDecodedExact pins what the fp16 score IS: the
// backend's answer must equal an exact search over the decoded
// half-precision matrix... up to the scan kernel's canonical summation
// order, so the comparison scans with dotFP16 directly. Thread counts
// and skips must not change the answer.
func TestFP16SearchMatchesDecodedExact(t *testing.T) {
	data := mixture(2500, 12, 10, 47)
	queries := mixture(20, 12, 10, 48)
	ref := NewFP16(data, 1)
	for _, threads := range []int{2, 5, 8} {
		fp := NewFP16(data, threads)
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			want := ref.Search(q, 10, Options{})
			got := fp.Search(q, 10, Options{})
			if !sameScored(got, want) {
				t.Fatalf("threads=%d query %d:\n%v\nvs serial\n%v", threads, qi, got, want)
			}
		}
	}
	skip := func(id int) bool { return id%5 == 1 }
	q := queries.Row(3)
	got := ref.Search(q, 8, Options{Skip: skip})
	for _, s := range got {
		if skip(s.ID) {
			t.Fatalf("skip filter leaked id %d", s.ID)
		}
		if want := dotFP16(q, ref.blocks[0].whole().F16[s.ID*12:(s.ID+1)*12]); math.Float64bits(want) != math.Float64bits(s.Score) {
			t.Fatalf("id %d score %v, want kernel score %v", s.ID, s.Score, want)
		}
	}
}

// TestShardedFP16EqualsUnsharded is the fp16 twin of the SQ8 sharding
// property: per-element encoding makes a row shard's codes exactly the
// row slice of the whole matrix's codes, and scores are final (no
// survivor cut), so a sharded fan-out must return bit-for-bit the
// unsharded answer at any shard count.
func TestShardedFP16EqualsUnsharded(t *testing.T) {
	data := mixture(3000, 8, 10, 53)
	queries := mixture(40, 8, 10, 54)
	whole := NewFP16(data, 2)
	for _, nShards := range []int{2, 3, 7} {
		subs := make([]Index, 0, nShards)
		for _, r := range mat.SplitRanges(data.Rows, nShards) {
			subs = append(subs, Shift(NewFP16(data.RowSlice(r[0], r[1]), 2), r[0]))
		}
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			skip := func(id int) bool { return id == qi*17 }
			want := whole.Search(q, 10, Options{Skip: skip})
			got := SearchSharded(subs, q, 10, Options{Skip: skip})
			if !sameScored(got, want) {
				t.Fatalf("shards=%d query %d:\nsharded   %v\nunsharded %v", nShards, qi, got, want)
			}
		}
	}
}

// TestEncodeFP16RowsSliceInvariance pins the property the sharding test
// rides on, directly: encoding a row slice yields exactly the
// corresponding slice of the whole encoding.
func TestEncodeFP16RowsSliceInvariance(t *testing.T) {
	data := mixture(500, 9, 6, 55)
	whole := EncodeFP16Rows(data)
	for _, r := range [][2]int{{0, 100}, {100, 350}, {350, 500}} {
		part := EncodeFP16Rows(data.RowSlice(r[0], r[1]))
		for i, c := range part {
			if c != whole[r[0]*9+i] {
				t.Fatalf("slice [%d,%d) code %d differs: %#04x vs %#04x", r[0], r[1], i, c, whole[r[0]*9+i])
			}
		}
	}
}

// TestFP16RefreshBitForBit: a dirty-row refresh must equal a from-scratch
// encode of the new matrix, code for code.
func TestFP16RefreshBitForBit(t *testing.T) {
	old := mixture(800, 10, 8, 56)
	fp := NewFP16(old, 3)
	next := mat.New(old.Rows, old.Cols)
	copy(next.Data, old.Data)
	rng := rand.New(rand.NewSource(57))
	dirty := []int{0, 17, 17, 799, 400} // duplicates allowed
	for _, r := range dirty {
		for j := range next.Row(r) {
			next.Row(r)[j] = rng.NormFloat64() * 3
		}
	}
	refreshed := fp.Refresh(mat.Page(next), dirty, nil)
	fresh := NewFP16(next, 3)
	for i, c := range refreshed.blocks[0].whole().F16 {
		if c != fresh.blocks[0].whole().F16[i] {
			t.Fatalf("refreshed code %d = %#04x, fresh %#04x", i, c, fresh.blocks[0].whole().F16[i])
		}
	}
	q := mixture(1, 10, 8, 58).Row(0)
	if !sameScored(refreshed.Search(q, 10, Options{}), fresh.Search(q, 10, Options{})) {
		t.Fatal("refreshed search diverges from fresh build")
	}
	// Shape mismatches must panic loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("shape-mismatched Refresh did not panic")
			}
		}()
		fp.Refresh(mat.Page(mat.New(10, 10)), nil, nil)
	}()
}

// TestIVFFP16FullProbeEqualsFP16: probing every list must recover the
// flat fp16 answer bit for bit (same kernel, same candidates, only the
// visit order differs — and scores are shard/list invariant).
func TestIVFFP16FullProbeEqualsFP16(t *testing.T) {
	data := mixture(1500, 8, 12, 63)
	queries := mixture(25, 8, 12, 64)
	flat := NewFP16(data, 4)
	iv := BuildIVF(data, IVFConfig{NList: 12, Seed: 5, Threads: 4})
	h := NewIVFFP16(iv, data)
	if h.Kind() != KindIVFFP16 || h.Len() != data.Rows || h.Dim() != data.Cols {
		t.Fatalf("ivffp16 identity: kind=%s len=%d dim=%d", h.Kind(), h.Len(), h.Dim())
	}
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		want := flat.Search(q, 10, Options{})
		got := h.Search(q, 10, Options{NProbe: iv.NList()})
		if !sameScored(got, want) {
			t.Fatalf("query %d:\nivffp16 %v\nfp16    %v", qi, got, want)
		}
	}
	// Partial probing with a skip filter still returns only unskipped ids.
	skip := func(id int) bool { return id%2 == 0 }
	res := h.Search(queries.Row(0), 5, Options{NProbe: 3, Skip: skip})
	for _, s := range res {
		if skip(s.ID) {
			t.Fatalf("skip filter leaked id %d", s.ID)
		}
	}
}

// TestIVFFP16RefreshBitForBit mirrors the IVFSQ refresh property: after
// an IVF refresh, re-encoding only rebuilt lists (pointer-identity reuse
// for untouched ones) must equal a from-scratch NewIVFFP16.
func TestIVFFP16RefreshBitForBit(t *testing.T) {
	old := mixture(1200, 8, 10, 65)
	iv := BuildIVF(old, IVFConfig{NList: 10, Seed: 9, Threads: 2})
	h := NewIVFFP16(iv, old)
	next := mat.New(old.Rows, old.Cols)
	copy(next.Data, old.Data)
	rng := rand.New(rand.NewSource(66))
	dirty := []int{3, 120, 777, 1199}
	for _, r := range dirty {
		for j := range next.Row(r) {
			next.Row(r)[j] = rng.NormFloat64()
		}
	}
	iv2 := iv.Refresh(mat.Page(next), dirty, nil)
	got := h.Refresh(mat.Page(next), dirty, iv2)
	want := NewIVFFP16(iv2, next)
	if len(got.blocks) != len(want.blocks) {
		t.Fatalf("list count %d vs %d", len(got.blocks), len(want.blocks))
	}
	reused := 0
	for l := range got.blocks {
		if len(got.blocks[l].whole().F16) != len(want.blocks[l].whole().F16) {
			t.Fatalf("list %d code count %d vs %d", l, len(got.blocks[l].whole().F16), len(want.blocks[l].whole().F16))
		}
		for i := range got.blocks[l].whole().F16 {
			if got.blocks[l].whole().F16[i] != want.blocks[l].whole().F16[i] {
				t.Fatalf("list %d code %d differs", l, i)
			}
		}
		if l < len(iv.inverted().vecs) && iv2.inverted().vecs[l] == iv.inverted().vecs[l] {
			reused++
			if &got.blocks[l].codes[0].F16[0] != &h.blocks[l].codes[0].F16[0] {
				t.Fatalf("untouched list %d was re-encoded instead of reused", l)
			}
		}
	}
	if reused == 0 {
		t.Fatal("refresh rebuilt every list; the reuse path was never exercised")
	}
	q := mixture(1, 8, 10, 67).Row(0)
	if !sameScored(got.Search(q, 10, Options{NProbe: iv2.NList()}), want.Search(q, 10, Options{NProbe: iv2.NList()})) {
		t.Fatal("refreshed ivffp16 search diverges from fresh build")
	}
}

// TestFP16DegenerateInputs walks the edge cases shared with the other
// backends: empty matrices, k clamps, zero-dimension rows.
func TestFP16DegenerateInputs(t *testing.T) {
	empty := NewFP16(mat.New(0, 8), 2)
	if res := empty.Search([]float64{1, 0, 0, 0, 0, 0, 0, 0}, 5, Options{}); len(res) != 0 {
		t.Fatalf("empty fp16 returned %v", res)
	}
	one := NewFP16(mat.FromRows([][]float64{{1, 2}}), 2)
	if res := one.Search([]float64{1, 1}, 10, Options{}); len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("k clamp: %v", res)
	}
	if res := one.Search([]float64{1, 1}, 0, Options{}); res != nil {
		t.Fatalf("k=0 returned %v", res)
	}
	zdim := NewFP16(mat.New(4, 0), 1)
	if res := zdim.Search(nil, 2, Options{}); len(res) != 2 {
		t.Fatalf("zero-dim search: %v", res)
	}
}
