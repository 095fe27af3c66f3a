package core

// Property-based tests using testing/quick on the core data structures
// and metric invariants. Raw float64 generation is constrained into the
// unit cube via custom Generate implementations so the properties are
// exercised on the domain the system actually operates in.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// cubeSeq is a quick-generatable sequence of 1-40 points in [0,1]^3.
type cubeSeq struct {
	Pts []geom.Point
}

// Generate implements quick.Generator.
func (cubeSeq) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(40)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return reflect.ValueOf(cubeSeq{Pts: pts})
}

// rangeList is a quick-generatable batch of ranges within [0, 300).
type rangeList struct {
	Rs []PointRange
}

func (rangeList) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(15)
	rs := make([]PointRange, n)
	for i := range rs {
		start := rng.Intn(300)
		rs[i] = PointRange{Start: start, End: start + rng.Intn(300-start+1)}
	}
	return reflect.ValueOf(rangeList{Rs: rs})
}

func TestQuickDSymmetric(t *testing.T) {
	f := func(a, b cubeSeq) bool {
		return almostEqual(DPoints(a.Pts, b.Pts), DPoints(b.Pts, a.Pts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDIdentityOfIndiscernibles(t *testing.T) {
	f := func(a cubeSeq) bool {
		return DPoints(a.Pts, a.Pts) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDNonNegativeAndBounded(t *testing.T) {
	maxD := math.Sqrt(3)
	f := func(a, b cubeSeq) bool {
		d := DPoints(a.Pts, b.Pts)
		return d >= 0 && d <= maxD+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickLemma3 re-states the central pruning-correctness property as a
// quick.Check: min Dmbr <= the phase-3 bound <= D for arbitrary unit-cube
// sequences under the default partitioning. The bound is Lemma 3's min
// Dnorm when the windowed sequence is at least as long as the query — the
// lemma's precondition — and the role rule's weighted bound of the shorter
// sequence's MBRs otherwise (phase3One, the seed form of refineOne).
func TestQuickLemma3(t *testing.T) {
	cfg := DefaultPartitionConfig()
	f := func(a, b cubeSeq) bool {
		gs, err := NewSegmented(&Sequence{Points: a.Pts}, cfg)
		if err != nil {
			return false
		}
		gq, err := NewSegmented(&Sequence{Points: b.Pts}, cfg)
		if err != nil {
			return false
		}
		minDmbr := math.Inf(1)
		for _, qm := range gq.MBRs {
			for _, sm := range gs.MBRs {
				minDmbr = math.Min(minDmbr, qm.Rect.MinDist(sm.Rect))
			}
		}
		m, _ := phase3One(gq, gs, len(b.Pts), math.Inf(-1))
		d := DPoints(b.Pts, a.Pts)
		return minDmbr <= m.MinDnorm+1e-9 && m.MinDnorm <= d+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionTiles checks the partition invariants on arbitrary
// input.
func TestQuickPartitionTiles(t *testing.T) {
	cfg := PartitionConfig{QueryExtent: 0.3, MaxPoints: 7}
	f := func(a cubeSeq) bool {
		g, err := NewSegmented(&Sequence{Points: a.Pts}, cfg)
		if err != nil {
			return false
		}
		return g.CheckPartition(cfg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntervalSetUnion checks that Add behaves as set union against a
// bitmap model for arbitrary range batches.
func TestQuickIntervalSetUnion(t *testing.T) {
	f := func(l rangeList) bool {
		var s IntervalSet
		bm := make([]bool, 600)
		for _, r := range l.Rs {
			s.Add(r)
			for i := r.Start; i < r.End; i++ {
				bm[i] = true
			}
		}
		count := 0
		for i, set := range bm {
			if set {
				count++
			}
			if s.Contains(i) != set {
				return false
			}
		}
		return s.NumPoints() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntervalIntersectCommutes checks |A∩B| = |B∩A| and the subset
// bound |A∩B| <= min(|A|, |B|).
func TestQuickIntervalIntersectCommutes(t *testing.T) {
	build := func(l rangeList) *IntervalSet {
		var s IntervalSet
		for _, r := range l.Rs {
			s.Add(r)
		}
		return &s
	}
	f := func(la, lb rangeList) bool {
		a, b := build(la), build(lb)
		ab := a.IntersectCount(b)
		ba := b.IntersectCount(a)
		if ab != ba {
			return false
		}
		return ab <= a.NumPoints() && ab <= b.NumPoints()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDTWLowerBoundsNothingButIsSane: DTW is symmetric, zero on
// identical inputs, and never exceeds the rigid mean distance on
// equal-length inputs (the rigid alignment is one admissible warp).
func TestQuickDTWProperties(t *testing.T) {
	f := func(a, b cubeSeq) bool {
		d1, err1 := DTW(a.Pts, b.Pts, -1)
		d2, err2 := DTW(b.Pts, a.Pts, -1)
		if err1 != nil || err2 != nil {
			return false
		}
		if !almostEqual(d1, d2) {
			return false
		}
		self, err := DTW(a.Pts, a.Pts, -1)
		if err != nil || self != 0 {
			return false
		}
		if len(a.Pts) == len(b.Pts) {
			if d1 > Dmean(a.Pts, b.Pts)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickOffsetProfileConsistency: the minimum of the profile equals
// DPoints, and every profile entry is a valid alignment mean (>= the
// minimum pair distance).
func TestQuickOffsetProfileConsistency(t *testing.T) {
	f := func(a, b cubeSeq) bool {
		profile := OffsetProfile(a.Pts, b.Pts)
		if len(profile) == 0 {
			return false
		}
		if !almostEqual(MinOfProfile(profile), DPoints(a.Pts, b.Pts)) {
			return false
		}
		delta := MinPointPairDist(a.Pts, b.Pts)
		for _, d := range profile {
			if d < delta-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
