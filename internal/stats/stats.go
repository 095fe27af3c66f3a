// Package stats provides the small set of summary statistics the
// experiment harness reports: mean, standard deviation, and quantiles with
// linear interpolation. Implemented here rather than pulled in, per the
// stdlib-only constraint.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs with linear
// interpolation between order statistics (type-7, the common default).
// It errors on an empty slice or out-of-range q.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %g outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median is Quantile at 0.5, returning 0 on error for convenience in
// report code (empty inputs only).
func Median(xs []float64) float64 {
	m, err := Quantile(xs, 0.5)
	if err != nil {
		return 0
	}
	return m
}
