package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// PointRange is a half-open range [Start, End) of point indices within one
// data sequence.
type PointRange struct {
	Start, End int // half-open [Start, End) point indices
}

// Len returns the number of points in the range.
func (r PointRange) Len() int { return r.End - r.Start }

// String renders the range in half-open interval notation.
func (r PointRange) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// IntervalSet is a normalized set of point ranges — the solution interval
// of Definition 6 (or its Dnorm approximation). Ranges are kept sorted,
// non-empty, non-overlapping and non-adjacent.
type IntervalSet struct {
	ranges []PointRange
}

// Add inserts a range, merging as needed. Empty or inverted ranges are
// ignored. The set is edited in place; phase 3 emits windows in nearly
// ascending order, so the usual call appends past the last range or
// widens it without searching.
func (s *IntervalSet) Add(r PointRange) {
	if r.End <= r.Start {
		return
	}
	n := len(s.ranges)
	if n == 0 || r.Start > s.ranges[n-1].End {
		s.ranges = append(s.ranges, r)
		return
	}
	if last := &s.ranges[n-1]; r.Start >= last.Start {
		if r.End > last.End {
			last.End = r.End
		}
		return
	}
	// Locate insertion point by Start.
	i := sort.Search(n, func(i int) bool { return s.ranges[i].Start > r.Start })
	// Merge with predecessor if overlapping/adjacent.
	if i > 0 && s.ranges[i-1].End >= r.Start {
		i--
		if s.ranges[i].End >= r.End {
			return // fully covered
		}
		r.Start = s.ranges[i].Start
	}
	// Absorb successors covered by r.
	j := i
	for j < n && s.ranges[j].Start <= r.End {
		if s.ranges[j].End > r.End {
			r.End = s.ranges[j].End
		}
		j++
	}
	s.ranges = slices.Replace(s.ranges, i, j, r)
}

// AddSet merges every range of t into s.
func (s *IntervalSet) AddSet(t *IntervalSet) {
	for _, r := range t.ranges {
		s.Add(r)
	}
}

// Ranges returns the normalized ranges (read-only view).
func (s *IntervalSet) Ranges() []PointRange { return s.ranges }

// NumPoints returns the total number of points covered.
func (s *IntervalSet) NumPoints() int {
	var n int
	for _, r := range s.ranges {
		n += r.Len()
	}
	return n
}

// Contains reports whether point index i is covered.
func (s *IntervalSet) Contains(i int) bool {
	j := sort.Search(len(s.ranges), func(j int) bool { return s.ranges[j].End > i })
	return j < len(s.ranges) && s.ranges[j].Start <= i
}

// IntersectCount returns |s ∩ t| in points — the numerator of the paper's
// recall measure.
func (s *IntervalSet) IntersectCount(t *IntervalSet) int {
	var n, i, j int
	for i < len(s.ranges) && j < len(t.ranges) {
		a, b := s.ranges[i], t.ranges[j]
		lo, hi := max(a.Start, b.Start), min(a.End, b.End)
		if hi > lo {
			n += hi - lo
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return n
}

// IsEmpty reports whether the set covers no points.
func (s *IntervalSet) IsEmpty() bool { return len(s.ranges) == 0 }

// String renders the set as a brace-wrapped list of its ranges.
func (s *IntervalSet) String() string {
	if len(s.ranges) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ranges))
	for i, r := range s.ranges {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
