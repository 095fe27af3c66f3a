package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Dmean returns the mean Euclidean point distance between two equal-length
// point slices (Definition 2):
//
//	Dmean(S1,S2) = (1/k) Σ_i d(S1[i], S2[i])
//
// It panics if the lengths differ; callers align windows before calling.
func Dmean(a, b []geom.Point) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("core: Dmean on lengths %d and %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	var sum float64
	for i := range a {
		sum += math.Sqrt(a[i].Dist2(b[i]))
	}
	return sum / float64(len(a))
}

// D returns the sequence distance D(S1,S2) (Definitions 2 and 3): the mean
// distance when the sequences have equal length, otherwise the minimum
// mean distance over every alignment of the shorter sequence slid along
// the longer one:
//
//	D(S1,S2) = min_{j=1..m-k+1} Dmean(S1[1:k], S2[j:j+k-1])   (k ≤ m)
//
// The metric is symmetric in which argument is shorter.
func D(s1, s2 *Sequence) float64 {
	return DPoints(s1.Points, s2.Points)
}

// DPoints is D on raw point slices.
func DPoints(a, b []geom.Point) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	k := len(short)
	best := math.Inf(1)
	for j := 0; j+k <= len(long); j++ {
		if d := Dmean(short, long[j:j+k]); d < best {
			best = d
		}
	}
	return best
}

// BestAlignment returns the offset j (0-based, into the longer sequence)
// minimizing the mean distance, along with that distance. Useful for
// presenting where a query matched.
func BestAlignment(a, b []geom.Point) (offset int, dist float64) {
	if len(a) == 0 || len(b) == 0 {
		return 0, math.Inf(1)
	}
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	k := len(short)
	dist = math.Inf(1)
	for j := 0; j+k <= len(long); j++ {
		if d := Dmean(short, long[j:j+k]); d < dist {
			dist, offset = d, j
		}
	}
	return offset, dist
}

// MinPointPairDist returns the minimum Euclidean distance between any pair
// of points drawn one from each slice — the δ of the paper's Lemma 1
// proof. Exported within the package for tests of Observation 1.
func MinPointPairDist(a, b []geom.Point) float64 {
	best := math.Inf(1)
	for _, p := range a {
		for _, q := range b {
			if d2 := p.Dist2(q); d2 < best {
				best = d2
			}
		}
	}
	return math.Sqrt(best)
}
