package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// DTW computes the dynamic time warping distance between two
// multidimensional point sequences: the minimum total Euclidean point
// distance over all monotone alignments that may locally accelerate or
// decelerate ("time warping ... permits local accelerations and
// decelerations", Yi et al., cited in the paper's Section 2). window is
// the Sakoe–Chiba band half-width constraining |i−j|; window < 0 means
// unconstrained.
//
// DTW is served through the index by the MetricDTW search path (a Query
// whose Metric is MetricDTW), which pairs it with envelope lower
// bounds so there are no false dismissals; this function is the exact
// distance itself, also usable directly and as the RefineDTW re-rank step.
//
// Both sides are validated as a Sequence is — one dimensionality across
// both, finite coordinates — and refused with geom.ErrDimensionMismatch or
// ErrNonFinite; the kernel reads the dimension from one point and assumes
// finite input. The dynamic program runs out of the pooled search scratch —
// the DP row and the flat point copies are reused across calls, so a warmed
// steady state computes DTW with zero allocations (see TestDTWAllocs).
func DTW(a, b []geom.Point, window int) (float64, error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, fmt.Errorf("core: DTW of empty sequence (%d, %d points)", n, m)
	}
	for _, side := range [2][]geom.Point{a, b} {
		if err := (&Sequence{Points: side}).Validate(); err != nil {
			return 0, fmt.Errorf("core: DTW: %w", err)
		}
	}
	d := len(a[0])
	if len(b[0]) != d {
		return 0, fmt.Errorf("core: DTW of %d- and %d-dimensional sequences: %w", d, len(b[0]), geom.ErrDimensionMismatch)
	}
	if window >= 0 && window < abs(n-m) {
		// A band narrower than the length difference admits no path.
		return 0, fmt.Errorf("core: DTW window %d narrower than length difference %d", window, abs(n-m))
	}
	sc := getScratch()
	defer putScratch(sc)
	ds := &sc.dtw
	ds.qbuf = ensureFloats(ds.qbuf, n*d)
	ds.sbuf = ensureFloats(ds.sbuf, m*d)
	for i, p := range a {
		copy(ds.qbuf[i*d:(i+1)*d], p)
	}
	for j, p := range b {
		copy(ds.sbuf[j*d:(j+1)*d], p)
	}
	ds.row = ensureFloats(ds.row, n+1)
	total := dtwFlat(ds.qbuf, n, ds.sbuf, m, d, window, math.Inf(1), nil, ds.row)
	if math.IsInf(total, 1) {
		return 0, fmt.Errorf("core: DTW window %d admits no alignment for lengths %d, %d", window, n, m)
	}
	// Normalize by the longer length so values are comparable to the mean
	// distance D on equal-length inputs.
	denom := n
	if m > denom {
		denom = m
	}
	return total / float64(denom), nil
}

// RefineDTW re-ranks range-search matches by DTW distance between the
// query and each match's solution-interval points, ascending. Matches
// whose window admits no alignment keep their original relative order at
// the end. This composes the paper's pruning machinery with the elastic
// metric its related-work section discusses.
func RefineDTW(q *Sequence, matches []Match, window int) []Match {
	out, _ := RefineDTWChecked(q, matches, window)
	return out
}

// RefineDTWChecked is RefineDTW, additionally reporting how many matches
// could not be scored because the window admitted no alignment (band
// narrower than the length difference, or an empty interval) — the count
// serving layers surface so a too-narrow -dtw-window is visible instead
// of silently leaving matches unranked at the tail.
func RefineDTWChecked(q *Sequence, matches []Match, window int) ([]Match, int) {
	type scored struct {
		m  Match
		d  float64
		ok bool
	}
	ss := make([]scored, len(matches))
	unaligned := 0
	for i, m := range matches {
		ss[i] = scored{m: m}
		// Compare against the densest matching range (the longest one).
		var best PointRange
		for _, r := range m.Interval.Ranges() {
			if r.Len() > best.Len() {
				best = r
			}
		}
		if best.Len() == 0 {
			unaligned++
			continue
		}
		d, err := DTW(q.Points, m.Seq.Points[best.Start:best.End], window)
		if err != nil {
			unaligned++
			continue
		}
		ss[i].d, ss[i].ok = d, true
	}
	// Scored matches ascending by distance, ties and the unscored tail in
	// input order: a single stable sort with "unscored after scored" as
	// the secondary key replaces the former O(n²) selection pass.
	sort.SliceStable(ss, func(a, b int) bool {
		if ss[a].ok != ss[b].ok {
			return ss[a].ok
		}
		return ss[a].ok && ss[a].d < ss[b].d
	})
	out := make([]Match, len(ss))
	for i := range ss {
		out[i] = ss[i].m
	}
	return out, unaligned
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
