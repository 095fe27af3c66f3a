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
// The kernels read the float32 arrays but do all arithmetic in float64
// after an exact widening conversion, so there is no rounding slack to
// account for: the result is exactly the MinDist of the widened
// rectangles, summed from GapSq like every other Dmbr. With the same
// scalar gap on both sides the two conversions per axis make the sidecar
// sweep slower than the float64 one, half the bytes notwithstanding; no
// search reads the sidecar.

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
			out[t] = GapSq(q0l, q0h, float64(lo[o]), float64(hi[o])) +
				GapSq(q1l, q1h, float64(lo[o+1]), float64(hi[o+1]))
		}
	case 3:
		q0l, q1l, q2l := qL[0], qL[1], qL[2]
		q0h, q1h, q2h := qH[0], qH[1], qH[2]
		for t := range out {
			o := t * 3
			out[t] = GapSq(q0l, q0h, float64(lo[o]), float64(hi[o])) +
				GapSq(q1l, q1h, float64(lo[o+1]), float64(hi[o+1])) +
				GapSq(q2l, q2h, float64(lo[o+2]), float64(hi[o+2]))
		}
	case 4:
		q0l, q1l, q2l, q3l := qL[0], qL[1], qL[2], qL[3]
		q0h, q1h, q2h, q3h := qH[0], qH[1], qH[2], qH[3]
		for t := range out {
			o := t * 4
			out[t] = GapSq(q0l, q0h, float64(lo[o]), float64(hi[o])) +
				GapSq(q1l, q1h, float64(lo[o+1]), float64(hi[o+1])) +
				GapSq(q2l, q2h, float64(lo[o+2]), float64(hi[o+2])) +
				GapSq(q3l, q3h, float64(lo[o+3]), float64(hi[o+3]))
		}
	default:
		minDistSqBatchQWide(qL, qH, lo, hi, out)
	}
}

// minDistSqBatchQWide is MinDistSqBatchQ for the dimensions it does not
// unroll: GapSq summed over the axes in index order.
func minDistSqBatchQWide(qL, qH []float64, lo, hi []float32, out []float64) {
	d := len(qL)
	for t := range out {
		o := t * d
		var sum float64
		for k := 0; k < d; k++ {
			sum += GapSq(qL[k], qH[k], float64(lo[o+k]), float64(hi[o+k]))
		}
		out[t] = sum
	}
}
