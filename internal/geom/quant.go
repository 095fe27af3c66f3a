package geom

import "math"

// Quantized bounds: float32 sidecar copies of MBR bound arrays, rounded
// outward — low corners toward −∞, high corners toward +∞ — so every
// quantized rectangle contains its exact float64 original. MinDist
// between enclosing rectangles never exceeds MinDist between the
// enclosed ones, so any distance computed from quantized bounds is a
// lower bound on the exact one: a prefilter over quantized arrays can
// only under-estimate, never over-estimate, and therefore never dismisses
// a candidate the exact kernel would keep (the paper's Lemma 1
// no-false-dismissal guarantee survives the quantization unchanged).
//
// The kernels read the float32 arrays — half the memory traffic of the
// float64 originals, which is what bounds the MinDistSq loop on dim ≥ 8 —
// but do all arithmetic in float64 after an exact widening conversion, so
// there is no rounding slack to account for: the result is exactly the
// MinDist of the widened rectangles.

// QuantizeDown fills dst[i] with the largest float32 not exceeding
// src[i] (rounding toward −∞). dst must be at least as long as src.
func QuantizeDown(dst []float32, src []float64) {
	for i, v := range src {
		f := float32(v) // rounds to nearest; may land above v
		if float64(f) > v {
			f = math.Nextafter32(f, float32(math.Inf(-1)))
		}
		dst[i] = f
	}
}

// QuantizeUp fills dst[i] with the smallest float32 not below src[i]
// (rounding toward +∞). dst must be at least as long as src.
func QuantizeUp(dst []float32, src []float64) {
	for i, v := range src {
		f := float32(v)
		if float64(f) < v {
			f = math.Nextafter32(f, float32(math.Inf(1)))
		}
		dst[i] = f
	}
}

// minDistSqGapQ is minDistSqGap with the target interval read from
// quantized float32 bounds. The conversions to float64 are exact, so the
// result is exactly the squared gap to the widened interval. The
// branchless max form (for non-empty intervals at most one difference is
// positive) compiles to MAXSD on amd64 — the gap sign is data-dependent
// and unpredictable, so avoiding the branch is worth ~2.5× on the batch
// sweep below.
func minDistSqGapQ(al, ah float64, bl, bh float32) float64 {
	x := max(float64(bl)-ah, al-float64(bh), 0)
	return x * x
}

// MinDistSqBatchQ is MinDistSqBatch over a quantized columnar bound
// store: out[t] receives the squared MinDist between the exact query box
// (qL, qH) and the t-th quantized target box, where target t occupies
// lo[t*d:(t+1)*d] and hi[t*d:(t+1)*d] with d = len(qL). Each output is a
// conservative lower bound on the exact MinDistSqBatch value for the
// same target (see the package comment above), computed while reading
// half the bound bytes. len(lo) and len(hi) must be at least len(out)*d.
func MinDistSqBatchQ(qL, qH []float64, lo, hi []float32, out []float64) {
	d := len(qL)
	switch d {
	case 2:
		q0l, q1l := qL[0], qL[1]
		q0h, q1h := qH[0], qH[1]
		for t := range out {
			o := t * 2
			out[t] = minDistSqGapQ(q0l, q0h, lo[o], hi[o]) +
				minDistSqGapQ(q1l, q1h, lo[o+1], hi[o+1])
		}
	case 3:
		q0l, q1l, q2l := qL[0], qL[1], qL[2]
		q0h, q1h, q2h := qH[0], qH[1], qH[2]
		for t := range out {
			o := t * 3
			out[t] = minDistSqGapQ(q0l, q0h, lo[o], hi[o]) +
				minDistSqGapQ(q1l, q1h, lo[o+1], hi[o+1]) +
				minDistSqGapQ(q2l, q2h, lo[o+2], hi[o+2])
		}
	case 4:
		q0l, q1l, q2l, q3l := qL[0], qL[1], qL[2], qL[3]
		q0h, q1h, q2h, q3h := qH[0], qH[1], qH[2], qH[3]
		for t := range out {
			o := t * 4
			out[t] = minDistSqGapQ(q0l, q0h, lo[o], hi[o]) +
				minDistSqGapQ(q1l, q1h, lo[o+1], hi[o+1]) +
				minDistSqGapQ(q2l, q2h, lo[o+2], hi[o+2]) +
				minDistSqGapQ(q3l, q3h, lo[o+3], hi[o+3])
		}
	default:
		for t := range out {
			o := t * d
			var sum float64
			for k := 0; k < d; k++ {
				sum += minDistSqGapQ(qL[k], qH[k], lo[o+k], hi[o+k])
			}
			out[t] = sum
		}
	}
}
