package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestIntervalAddBasic(t *testing.T) {
	var s IntervalSet
	if !s.IsEmpty() {
		t.Error("new set should be empty")
	}
	s.Add(PointRange{5, 10})
	s.Add(PointRange{20, 25})
	if got := s.NumPoints(); got != 10 {
		t.Errorf("NumPoints = %d, want 10", got)
	}
	if len(s.Ranges()) != 2 {
		t.Errorf("Ranges = %v", s.Ranges())
	}
}

func TestIntervalAddIgnoresEmpty(t *testing.T) {
	var s IntervalSet
	s.Add(PointRange{5, 5})
	s.Add(PointRange{7, 3})
	if !s.IsEmpty() {
		t.Errorf("empty/inverted ranges added: %v", s)
	}
}

func TestIntervalMergeOverlapping(t *testing.T) {
	var s IntervalSet
	s.Add(PointRange{0, 10})
	s.Add(PointRange{5, 15})
	if len(s.Ranges()) != 1 || s.Ranges()[0] != (PointRange{0, 15}) {
		t.Errorf("merged = %v, want {[0,15)}", s)
	}
}

func TestIntervalMergeAdjacent(t *testing.T) {
	var s IntervalSet
	s.Add(PointRange{0, 10})
	s.Add(PointRange{10, 20})
	if len(s.Ranges()) != 1 || s.NumPoints() != 20 {
		t.Errorf("adjacent ranges not merged: %v", s)
	}
}

func TestIntervalAddCovering(t *testing.T) {
	var s IntervalSet
	s.Add(PointRange{5, 10})
	s.Add(PointRange{15, 20})
	s.Add(PointRange{0, 30}) // swallows both
	if len(s.Ranges()) != 1 || s.Ranges()[0] != (PointRange{0, 30}) {
		t.Errorf("covering add = %v", s)
	}
}

func TestIntervalAddContained(t *testing.T) {
	var s IntervalSet
	s.Add(PointRange{0, 30})
	s.Add(PointRange{5, 10})
	if len(s.Ranges()) != 1 || s.Ranges()[0] != (PointRange{0, 30}) {
		t.Errorf("contained add = %v", s)
	}
}

func TestIntervalContains(t *testing.T) {
	var s IntervalSet
	s.Add(PointRange{5, 10})
	s.Add(PointRange{20, 25})
	for _, tc := range []struct {
		i    int
		want bool
	}{{4, false}, {5, true}, {9, true}, {10, false}, {19, false}, {20, true}, {24, true}, {25, false}} {
		if got := s.Contains(tc.i); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.i, got, tc.want)
		}
	}
}

func TestIntervalIntersectCount(t *testing.T) {
	var a, b IntervalSet
	a.Add(PointRange{0, 10})
	a.Add(PointRange{20, 30})
	b.Add(PointRange{5, 25})
	// a ∩ b = [5,10) ∪ [20,25) → 10 points
	if got := a.IntersectCount(&b); got != 10 {
		t.Errorf("IntersectCount = %d, want 10", got)
	}
	if got := b.IntersectCount(&a); got != 10 {
		t.Errorf("IntersectCount not symmetric: %d", got)
	}
	var empty IntervalSet
	if got := a.IntersectCount(&empty); got != 0 {
		t.Errorf("intersect with empty = %d", got)
	}
}

func TestIntervalAddSet(t *testing.T) {
	var a, b IntervalSet
	a.Add(PointRange{0, 5})
	b.Add(PointRange{3, 8})
	b.Add(PointRange{20, 22})
	a.AddSet(&b)
	if a.NumPoints() != 10 {
		t.Errorf("AddSet NumPoints = %d, want 10", a.NumPoints())
	}
}

func TestIntervalString(t *testing.T) {
	var s IntervalSet
	if s.String() != "{}" {
		t.Errorf("empty String = %q", s.String())
	}
	s.Add(PointRange{1, 3})
	if s.String() != "{[1,3)}" {
		t.Errorf("String = %q", s.String())
	}
}

// TestIntervalAgainstBitmapReference fuzzes the set against a boolean
// bitmap model: NumPoints, Contains and IntersectCount must all agree.
func TestIntervalAgainstBitmapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const universe = 200
	for trial := 0; trial < 100; trial++ {
		var s, u IntervalSet
		bm := make([]bool, universe)
		bu := make([]bool, universe)
		for op := 0; op < 20; op++ {
			start := rng.Intn(universe)
			end := start + rng.Intn(universe-start)
			if rng.Intn(2) == 0 {
				s.Add(PointRange{start, end})
				for i := start; i < end; i++ {
					bm[i] = true
				}
			} else {
				u.Add(PointRange{start, end})
				for i := start; i < end; i++ {
					bu[i] = true
				}
			}
		}
		wantN, wantI := 0, 0
		for i := 0; i < universe; i++ {
			if bm[i] {
				wantN++
			}
			if bm[i] && bu[i] {
				wantI++
			}
			if s.Contains(i) != bm[i] {
				t.Fatalf("trial %d: Contains(%d) = %v, bitmap %v", trial, i, s.Contains(i), bm[i])
			}
		}
		if got := s.NumPoints(); got != wantN {
			t.Fatalf("trial %d: NumPoints = %d, want %d", trial, got, wantN)
		}
		if got := s.IntersectCount(&u); got != wantI {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, got, wantI)
		}
		// Normalization invariants: sorted, disjoint, non-adjacent.
		rs := s.Ranges()
		for i := 1; i < len(rs); i++ {
			if rs[i].Start <= rs[i-1].End {
				t.Fatalf("trial %d: ranges not normalized: %v", trial, rs)
			}
		}
	}
}

// addRebuild is IntervalSet.Add as it was before the in-place rewrite:
// it locates the affected span and rebuilds the slice around a temporary.
func addRebuild(rs []PointRange, r PointRange) []PointRange {
	if r.End <= r.Start {
		return rs
	}
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Start > r.Start })
	if i > 0 && rs[i-1].End >= r.Start {
		i--
		if rs[i].End >= r.End {
			return rs
		}
		r.Start = rs[i].Start
	}
	j := i
	for j < len(rs) && rs[j].Start <= r.End {
		if rs[j].End > r.End {
			r.End = rs[j].End
		}
		j++
	}
	return append(rs[:i:i], append([]PointRange{r}, rs[j:]...)...)
}

// TestIntervalAddMatchesRebuild drives the in-place Add and the previous
// rebuild-the-slice implementation with the same random range streams —
// uniformly scattered, and nearly ascending with overlaps the way phase 3
// emits windows — and requires identical normalized output after every
// call.
func TestIntervalAddMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		var s IntervalSet
		var want []PointRange
		ascending := trial%2 == 0
		cursor := 0
		for op := 0; op < 60; op++ {
			var r PointRange
			if ascending {
				cursor += rng.Intn(12) - 3
				if cursor < 0 {
					cursor = 0
				}
				r = PointRange{cursor, cursor + rng.Intn(10) - 1}
			} else {
				r.Start = rng.Intn(300)
				r.End = r.Start + rng.Intn(40) - 2
			}
			s.Add(r)
			want = addRebuild(want, r)
			if len(want) == 0 && s.IsEmpty() {
				continue
			}
			if !reflect.DeepEqual(s.Ranges(), want) {
				t.Fatalf("trial %d op %d: after Add(%v) got %v, rebuild form %v", trial, op, r, s.Ranges(), want)
			}
		}
	}
}
