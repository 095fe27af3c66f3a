package core

import (
	"math"

	"repro/internal/geom"
)

// ScanResult is a Match as a Scan under a nil Metric reports it: SeqID,
// Seq, the exact distance Dist = D(Q,S) and the exact solution interval of
// Definition 6.
type ScanResult = Match

// OffsetProfile returns, for a query q (length k) against data points s
// (length m ≥ k is not required), the mean distance of every alignment:
// profile[j] = Dmean(q, s[j:j+k]) for 0 ≤ j ≤ m−k. When the query is
// longer than the data, the roles swap per Definition 3 and profile[j] =
// Dmean(q[j:j+m], s). The profile is threshold-independent, so experiment
// harnesses compute it once per (query, sequence) pair and derive
// relevance and solution intervals for every ε from it.
func OffsetProfile(q, s []geom.Point) []float64 {
	short, long := q, s
	if len(short) > len(long) {
		short, long = long, short
	}
	k := len(short)
	if k == 0 {
		return nil
	}
	out := make([]float64, len(long)-k+1)
	for j := range out {
		out[j] = Dmean(short, long[j:j+k])
	}
	return out
}

// SolutionIntervalFromProfile converts an offset profile into the exact
// solution interval for threshold eps: every window whose mean distance
// falls under eps contributes its k points. queryLonger reports whether
// the query was the longer side (then any qualifying window makes the
// whole data sequence the interval, since the data slid inside the query).
func SolutionIntervalFromProfile(profile []float64, k, dataLen int, queryLonger bool, eps float64) IntervalSet {
	var si IntervalSet
	for j, d := range profile {
		if d > eps {
			continue
		}
		if queryLonger {
			si.Add(PointRange{Start: 0, End: dataLen})
			return si
		}
		si.Add(PointRange{Start: j, End: j + k})
	}
	return si
}

// MinOfProfile returns the smallest profile value (D(Q,S)), or +Inf for an
// empty profile.
func MinOfProfile(profile []float64) float64 {
	best := math.Inf(1)
	for _, d := range profile {
		if d < best {
			best = d
		}
	}
	return best
}
