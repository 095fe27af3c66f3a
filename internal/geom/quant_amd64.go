package geom

// minDistSqBatchQPacked is the body of minDistSqBatchQWide, in SSE2 (part
// of every amd64): see quant_amd64.s. It checks no bound.
//
//go:noescape
func minDistSqBatchQPacked(qL, qH *float64, lo, hi *float32, out *float64, n, d int)

// minDistSqBatchQWide is MinDistSqBatchQ for the dimensions it does not
// unroll. Two float32 bounds are one 8-byte load and one packed widening,
// so the sidecar is swept two axes per instruction — GapSq's expression
// with packed operands, held to GapSq bit for bit by
// TestMinDistSqBatchQMatchesReference. MAXPD and the builtin max differ
// only on NaN and on the sign of a zero, and the square drops the sign.
func minDistSqBatchQWide(qL, qH []float64, lo, hi []float32, out []float64) {
	d, n := len(qL), len(out)
	if n == 0 {
		return
	}
	if d == 0 {
		clear(out)
		return
	}
	_, _, _ = qH[d-1], lo[n*d-1], hi[n*d-1] // the checks the assembly leaves out
	minDistSqBatchQPacked(&qL[0], &qH[0], &lo[0], &hi[0], &out[0], n, d)
}
