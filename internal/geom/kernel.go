package geom

// Hot-path kernels: squared-distance and flat (structure-of-arrays)
// variants of the package's distance functions.
//
// The paper's pruning chain Dmbr ≤ Dnorm ≤ D (Lemmas 1–3) is built from
// Euclidean distances, and sqrt is strictly monotone, so every comparison
// "distance ≤ ε" in candidate selection can instead run as "squared
// distance ≤ ε²" with the square root deferred until a result is actually
// emitted. The kernels below are the squared forms; they avoid both the
// sqrt per comparison and any per-call allocation, and they operate on
// flat []float64 coordinate arrays so callers can keep bounds and points
// in contiguous, cache-friendly storage instead of per-object slices.
//
// Arithmetic note: each kernel accumulates Σ x_k² over axes in index
// order, exactly like the slice-based originals, so MinDist(a,b) ==
// Sqrt(MinDistSq(a,b)) bit-for-bit and search results computed through
// either form are identical.

// GapSq returns the per-axis contribution to the squared MinDist between
// [al,ah] and [bl,bh]: the squared gap between the projections, 0 when
// they overlap or touch. It is the one definition every Dmbr in the system
// is summed from — the batch kernels below, the R*-tree's node scan, the
// DTW envelope bounds — and it carries no branch: for intervals with
// lo ≤ hi at most one of the two differences is positive, so the largest
// of them and 0 is the gap. The bounds must be finite (Inf − Inf is NaN
// where there is no gap); core.Sequence.Validate enforces that for every
// coordinate that reaches a kernel.
func GapSq(al, ah, bl, bh float64) float64 {
	x := max(bl-ah, al-bh, 0)
	return x * x
}

// MinDistSqLH returns the squared minimum Euclidean distance between the
// hyper-rectangle (aL, aH) and the hyper-rectangle (bL, bH), all given as
// flat coordinate slices of one dimensionality. It is the allocation-free
// kernel behind Rect.MinDistSq; callers with columnar bound storage
// (internal/core's Segmented, internal/rtree's node arrays) invoke it
// directly on sub-slices. All four slices must have the same length; the
// kernel indexes bL/bH/aH by aL's indices and will panic (bounds check)
// on shorter inputs.
func MinDistSqLH(aL, aH, bL, bH []float64) float64 {
	switch len(aL) {
	case 1:
		return GapSq(aL[0], aH[0], bL[0], bH[0])
	case 2:
		return GapSq(aL[0], aH[0], bL[0], bH[0]) +
			GapSq(aL[1], aH[1], bL[1], bH[1])
	case 3:
		return GapSq(aL[0], aH[0], bL[0], bH[0]) +
			GapSq(aL[1], aH[1], bL[1], bH[1]) +
			GapSq(aL[2], aH[2], bL[2], bH[2])
	case 4:
		return GapSq(aL[0], aH[0], bL[0], bH[0]) +
			GapSq(aL[1], aH[1], bL[1], bH[1]) +
			GapSq(aL[2], aH[2], bL[2], bH[2]) +
			GapSq(aL[3], aH[3], bL[3], bH[3])
	}
	var sum float64
	for k := range aL {
		sum += GapSq(aL[k], aH[k], bL[k], bH[k])
	}
	return sum
}

// MinDistSqBatch fills out[t] with the squared MinDist between the query
// box (qL, qH) and the t-th target box of a columnar bound store: target
// t occupies lo[t*d:(t+1)*d] and hi[t*d:(t+1)*d] where d = len(qL). It
// is the phase-3 inner loop of the Dnorm machinery: one pass computes
// every Dmbr(query MBR, data MBR) of a segmented sequence over
// sequential memory, with the dimension switch hoisted out of the loop
// for the common low-dimensional cases. len(lo) and len(hi) must be at
// least len(out)*d.
func MinDistSqBatch(qL, qH, lo, hi []float64, out []float64) {
	d := len(qL)
	switch d {
	case 2:
		q0l, q1l := qL[0], qL[1]
		q0h, q1h := qH[0], qH[1]
		for t := range out {
			o := t * 2
			out[t] = GapSq(q0l, q0h, lo[o], hi[o]) +
				GapSq(q1l, q1h, lo[o+1], hi[o+1])
		}
	case 3:
		q0l, q1l, q2l := qL[0], qL[1], qL[2]
		q0h, q1h, q2h := qH[0], qH[1], qH[2]
		for t := range out {
			o := t * 3
			out[t] = GapSq(q0l, q0h, lo[o], hi[o]) +
				GapSq(q1l, q1h, lo[o+1], hi[o+1]) +
				GapSq(q2l, q2h, lo[o+2], hi[o+2])
		}
	case 4:
		q0l, q1l, q2l, q3l := qL[0], qL[1], qL[2], qL[3]
		q0h, q1h, q2h, q3h := qH[0], qH[1], qH[2], qH[3]
		for t := range out {
			o := t * 4
			out[t] = GapSq(q0l, q0h, lo[o], hi[o]) +
				GapSq(q1l, q1h, lo[o+1], hi[o+1]) +
				GapSq(q2l, q2h, lo[o+2], hi[o+2]) +
				GapSq(q3l, q3h, lo[o+3], hi[o+3])
		}
	default:
		for t := range out {
			o := t * d
			out[t] = MinDistSqLH(qL, qH, lo[o:o+d], hi[o:o+d])
		}
	}
}

// MinDistPointSqFlat returns the squared minimum Euclidean distance
// between a point and the hyper-rectangle (lo, hi), all given as flat
// coordinate slices of one dimensionality — the degenerate-rectangle form
// of MinDistSqLH used by envelope lower bounds (a point inside the box
// contributes 0 on every axis). The sum runs over p's indices in order.
func MinDistPointSqFlat(p, lo, hi []float64) float64 {
	switch len(p) {
	case 1:
		return GapSq(p[0], p[0], lo[0], hi[0])
	case 2:
		return GapSq(p[0], p[0], lo[0], hi[0]) +
			GapSq(p[1], p[1], lo[1], hi[1])
	case 3:
		return GapSq(p[0], p[0], lo[0], hi[0]) +
			GapSq(p[1], p[1], lo[1], hi[1]) +
			GapSq(p[2], p[2], lo[2], hi[2])
	case 4:
		return GapSq(p[0], p[0], lo[0], hi[0]) +
			GapSq(p[1], p[1], lo[1], hi[1]) +
			GapSq(p[2], p[2], lo[2], hi[2]) +
			GapSq(p[3], p[3], lo[3], hi[3])
	}
	var sum float64
	for k := range p {
		sum += GapSq(p[k], p[k], lo[k], hi[k])
	}
	return sum
}

// DistSqFlat returns the squared Euclidean distance between two points
// stored as flat coordinate slices of equal length — the stride-indexed
// form of Point.DistSq for columnar point storage. The sum runs over a's
// indices in order (same arithmetic as Point.DistSq).
func DistSqFlat(a, b []float64) float64 {
	switch len(a) {
	case 1:
		d := a[0] - b[0]
		return d * d
	case 2:
		d0, d1 := a[0]-b[0], a[1]-b[1]
		return d0*d0 + d1*d1
	case 3:
		d0, d1, d2 := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		return d0*d0 + d1*d1 + d2*d2
	case 4:
		d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
		return d0*d0 + d1*d1 + d2*d2 + d3*d3
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
