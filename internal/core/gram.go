package core

import (
	"fmt"

	"pane/internal/mat"
)

// GramDelta is the low-rank correction an attribute delta induces on the
// link-candidate matrix Z = Xb·G. When an update moves only the Y rows of
// the touched attributes (the node-only CCD sweeps leave Y untouched, and
// the attribute sweeps move exactly the delta's rows), the Gram matrix
// changes by
//
//	ΔG = Σ_{r ∈ Δattrs} (yNew_r ⊗ yNew_r − yOld_r ⊗ yOld_r),
//
// a rank ≤ 2·|Δattrs| update. For any node i whose Xb row did not change,
// the new candidate row is Z_new[i] = Z_old[i] + Xb[i]·ΔG, which Apply
// evaluates as Σ_r (Xb[i]·yNew_r)·yNew_r − (Xb[i]·yOld_r)·yOld_r in
// O(|Δattrs|·k) per row — instead of the O(k²) full transform per row that
// previously forced attribute deltas onto the full-rebuild path.
//
// The correction is float-exact up to round-off (~1e-15 relative per
// application); the serving layer counts applications and the bench
// verifies recall against a freshly-built index stays ≥ 0.999.
type GramDelta struct {
	yOld, yNew *mat.Dense // gathered touched rows: |Δattrs| x k/2
}

// NewGramDelta gathers the touched attribute rows from the previous and
// updated Y factors. The two factors must share shape, and attrs must be
// in range (the caller's UpdateDelta contract).
func NewGramDelta(yOld, yNew *mat.Dense, attrs []int) (*GramDelta, error) {
	if yOld.Rows != yNew.Rows || yOld.Cols != yNew.Cols {
		return nil, fmt.Errorf("core: GramDelta factor shapes differ: %dx%d vs %dx%d",
			yOld.Rows, yOld.Cols, yNew.Rows, yNew.Cols)
	}
	d := &GramDelta{
		yOld: mat.New(len(attrs), yOld.Cols),
		yNew: mat.New(len(attrs), yOld.Cols),
	}
	for j, r := range attrs {
		if r < 0 || r >= yOld.Rows {
			return nil, fmt.Errorf("core: GramDelta attr row %d out of range [0,%d)", r, yOld.Rows)
		}
		copy(d.yOld.Row(j), yOld.Row(r))
		copy(d.yNew.Row(j), yNew.Row(r))
	}
	return d, nil
}

// Rank returns the rank bound of the correction, 2·|Δattrs|.
func (d *GramDelta) Rank() int { return 2 * d.yOld.Rows }

// Apply adds the correction to z, a block of candidate rows whose global
// node ids are [lo, lo+z.Rows): row j of z is corrected using Xb row
// lo+j. nb parallelizes over the block's rows; each row is owned by one
// worker, so results are deterministic.
func (d *GramDelta) Apply(z *mat.Dense, xb *mat.Paged, lo, nb int) {
	if z.Cols != xb.Cols || z.Cols != d.yOld.Cols {
		panic(fmt.Sprintf("core: GramDelta Apply width mismatch: z %d, xb %d, delta %d",
			z.Cols, xb.Cols, d.yOld.Cols))
	}
	if lo < 0 || lo+z.Rows > xb.Rows {
		panic(fmt.Sprintf("core: GramDelta Apply rows [%d,%d) out of range for %d nodes",
			lo, lo+z.Rows, xb.Rows))
	}
	if nb < 1 {
		nb = 1
	}
	nr := d.yOld.Rows
	mat.ParallelRanges(z.Rows, nb, func(blo, bhi int) {
		for j := blo; j < bhi; j++ {
			xrow := xb.Row(lo + j)
			zrow := z.Row(j)
			for r := 0; r < nr; r++ {
				yn := d.yNew.Row(r)
				yo := d.yOld.Row(r)
				mat.AxpyVec(mat.Dot(xrow, yn), yn, zrow)
				mat.AxpyVec(-mat.Dot(xrow, yo), yo, zrow)
			}
		}
	})
}
