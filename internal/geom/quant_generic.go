//go:build !amd64

package geom

// minDistSqBatchQWide is MinDistSqBatchQ for the dimensions it does not
// unroll: GapSq summed over the axes in index order. amd64 has a packed
// form of the same loop (quant_amd64.go).
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
