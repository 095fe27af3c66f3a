package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// buildSegmented constructs a Segmented by hand from (rect, count) specs,
// generating the matching points at each rect's corners so partitions stay
// consistent.
func buildSegmented(specs []struct {
	rect  geom.Rect
	count int
}) *Segmented {
	var pts []geom.Point
	var mbrs []MBRInfo
	start := 0
	for _, sp := range specs {
		for i := 0; i < sp.count; i++ {
			if i%2 == 0 {
				pts = append(pts, sp.rect.L.Clone())
			} else {
				pts = append(pts, sp.rect.H.Clone())
			}
		}
		mbrs = append(mbrs, MBRInfo{Rect: sp.rect.Clone(), Start: start, End: start + sp.count})
		start += sp.count
	}
	return &Segmented{Seq: &Sequence{Points: pts}, MBRs: mbrs}
}

func rect1d(lo, hi float64) geom.Rect {
	return geom.MustRect(geom.Point{lo}, geom.Point{hi})
}

// TestDnormExample2 reproduces the paper's worked Example 2 (Figure 3):
// four data MBRs with counts 4,6,5,5, distances D2 < D1 < D3 < D4 to the
// query MBR, and a 12-point query MBR. The expected answer is
// (6·D2 + 4·D1 + 2·D3) / 12.
func TestDnormExample2(t *testing.T) {
	q := rect1d(0.5, 0.6)
	g := buildSegmented([]struct {
		rect  geom.Rect
		count int
	}{
		{rect1d(0.30, 0.35), 4}, // D1 = 0.15
		{rect1d(0.45, 0.48), 6}, // D2 = 0.02
		{rect1d(0.80, 0.85), 5}, // D3 = 0.20
		{rect1d(0.95, 1.00), 5}, // D4 = 0.35
	})
	const (
		d1, d2, d3 = 0.15, 0.02, 0.20
		qCount     = 12
	)
	res := Dnorm(q, qCount, g, 1) // mbr2 in the paper's 1-based numbering
	want := (6*d2 + 4*d1 + 2*d3) / qCount
	if !almostEqual(res.Dist, want) {
		t.Fatalf("Dnorm = %g, want %g", res.Dist, want)
	}
	// The involved window spans mbr1..mbr3 (indices 0..2): all of the
	// first two MBRs plus the first 2 points of the third (Example 3).
	if res.K != 0 || res.L != 2 {
		t.Errorf("window = [%d,%d], want [0,2]", res.K, res.L)
	}
	if res.PStart != 0 || res.PEnd != 12 {
		t.Errorf("points = [%d,%d), want [0,12): 4+6 full + first 2 of mbr3", res.PStart, res.PEnd)
	}
}

func TestDnormTargetBigEnoughIsPlainDmbr(t *testing.T) {
	q := rect1d(0.5, 0.6)
	g := buildSegmented([]struct {
		rect  geom.Rect
		count int
	}{
		{rect1d(0.30, 0.35), 4},
		{rect1d(0.45, 0.48), 20}, // ≥ qCount: no neighbors absorbed
		{rect1d(0.80, 0.85), 5},
	})
	res := Dnorm(q, 12, g, 1)
	if !almostEqual(res.Dist, 0.02) {
		t.Errorf("Dist = %g, want plain Dmbr 0.02", res.Dist)
	}
	if res.K != 1 || res.L != 1 {
		t.Errorf("window = [%d,%d], want [1,1]", res.K, res.L)
	}
	if res.PStart != 4 || res.PEnd != 24 {
		t.Errorf("points = [%d,%d), want the whole target MBR [4,24)", res.PStart, res.PEnd)
	}
}

// TestDnormSequenceShorterThanQueryMBR: a sequence with fewer points than
// the query MBR holds no window of the query MBR's size, so its Dnorm is
// +Inf and the sweep emits nothing — Lemma 3 says nothing of such a pair,
// and phase 3 decides it by the role rule instead (refineOne).
func TestDnormSequenceShorterThanQueryMBR(t *testing.T) {
	q := rect1d(0.5, 0.6)
	g := buildSegmented([]struct {
		rect  geom.Rect
		count int
	}{
		{rect1d(0.30, 0.35), 3}, // D = 0.15
		{rect1d(0.45, 0.48), 3}, // D = 0.02
	})
	for j := range g.MBRs {
		if res := Dnorm(q, 100, g, j); !math.IsInf(res.Dist, 1) {
			t.Errorf("Dnorm(%d) = %g over %d points, want +Inf: no 100-point window", j, res.Dist, g.Seq.Len())
		}
	}
	emitted := 0
	if min := newDnormCalc(q, 100, g).sweep(math.Inf(1), func(float64, int, int) { emitted++ }); !math.IsInf(min, 1) || emitted != 0 {
		t.Errorf("sweep: minimum %g and %d windows, want +Inf and none", min, emitted)
	}
}

func TestDnormAtSequenceEdges(t *testing.T) {
	// Target at the leftmost MBR: only LD (rightward) windows exist.
	q := rect1d(0.5, 0.6)
	g := buildSegmented([]struct {
		rect  geom.Rect
		count int
	}{
		{rect1d(0.40, 0.45), 4}, // D = 0.05
		{rect1d(0.70, 0.75), 4}, // D = 0.10
		{rect1d(0.90, 0.95), 4}, // D = 0.30
	})
	res := Dnorm(q, 6, g, 0)
	want := (4*0.05 + 2*0.10) / 6
	if !almostEqual(res.Dist, want) {
		t.Errorf("left edge Dist = %g, want %g", res.Dist, want)
	}
	// Target at the rightmost MBR: only RD (leftward) windows exist.
	res = Dnorm(q, 6, g, 2)
	want = (4*0.30 + 2*0.10) / 6
	if !almostEqual(res.Dist, want) {
		t.Errorf("right edge Dist = %g, want %g", res.Dist, want)
	}
	if res.PEnd != 12 || res.PStart != 6 {
		t.Errorf("right edge points = [%d,%d), want [6,12)", res.PStart, res.PEnd)
	}
}

func TestDnormIsConvexCombinationOfDmbrs(t *testing.T) {
	// Dnorm must lie between the min and max Dmbr of the sequence's MBRs,
	// for every target index — it is a weighted average by construction.
	rng := rand.New(rand.NewSource(20))
	cfg := DefaultPartitionConfig()
	for trial := 0; trial < 40; trial++ {
		s := randWalkSeq(rng, 20+rng.Intn(200), 3)
		g, err := NewSegmented(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := randWalkSeq(rng, 5+rng.Intn(50), 3)
		qr := geom.BoundingRect(q.Points)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, m := range g.MBRs {
			d := qr.MinDist(m.Rect)
			lo = math.Min(lo, d)
			hi = math.Max(hi, d)
		}
		calc := newDnormCalc(qr, q.Len(), g)
		for j := range g.MBRs {
			d := calc.dnorm(j).Dist
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Fatalf("Dnorm(%d) = %g outside [%g,%g]", j, d, lo, hi)
			}
		}
	}
}

// TestLemma3Sandwich verifies the paper's core correctness result on random
// data: min Dmbr ≤ min Dnorm ≤ D(Q,S) for every query/data pair with the
// data sequence at least as long as the query — Lemma 3's precondition, see
// refineOne — which is exactly what makes the two-phase pruning free of
// false dismissals.
func TestLemma3Sandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := DefaultPartitionConfig()
	for trial := 0; trial < 80; trial++ {
		var s, q *Sequence
		if trial%3 == 0 {
			s, q = randSeq(rng, 10+rng.Intn(150), 3), randSeq(rng, 5+rng.Intn(80), 3)
		} else {
			s, q = randWalkSeq(rng, 10+rng.Intn(150), 3), randWalkSeq(rng, 5+rng.Intn(80), 3)
		}
		if s.Len() < q.Len() {
			s, q = q, s
		}
		gs, err := NewSegmented(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gq, err := NewSegmented(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		minDmbr, minDnorm := math.Inf(1), math.Inf(1)
		for _, qm := range gq.MBRs {
			calc := newDnormCalc(qm.Rect, qm.Count(), gs)
			for j, sm := range gs.MBRs {
				minDmbr = math.Min(minDmbr, qm.Rect.MinDist(sm.Rect))
				minDnorm = math.Min(minDnorm, calc.dnorm(j).Dist)
			}
		}
		dQS := D(q, s)
		if minDmbr > minDnorm+1e-9 {
			t.Fatalf("trial %d: min Dmbr %g > min Dnorm %g", trial, minDmbr, minDnorm)
		}
		if minDnorm > dQS+1e-9 {
			t.Fatalf("trial %d: min Dnorm %g > D(Q,S) %g (false dismissal possible!)",
				trial, minDnorm, dQS)
		}
	}
}

// TestLemma1LowerBound verifies Lemma 1 directly: the smallest MBR distance
// between query and data partitions lower-bounds the sequence distance.
func TestLemma1LowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := DefaultPartitionConfig()
	for trial := 0; trial < 80; trial++ {
		s := randWalkSeq(rng, 10+rng.Intn(120), 3)
		q := randWalkSeq(rng, 5+rng.Intn(60), 3)
		gs, _ := NewSegmented(s, cfg)
		gq, _ := NewSegmented(q, cfg)
		minDmbr := math.Inf(1)
		for _, qm := range gq.MBRs {
			for _, sm := range gs.MBRs {
				minDmbr = math.Min(minDmbr, qm.Rect.MinDist(sm.Rect))
			}
		}
		if dQS := D(q, s); minDmbr > dQS+1e-9 {
			t.Fatalf("trial %d: min Dmbr %g > D %g", trial, minDmbr, dQS)
		}
	}
}

func TestMinDnormMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := DefaultPartitionConfig()
	s := randWalkSeq(rng, 150, 3)
	g, _ := NewSegmented(s, cfg)
	q := randWalkSeq(rng, 40, 3)
	qr := geom.BoundingRect(q.Points)
	want := math.Inf(1)
	for j := range g.MBRs {
		want = math.Min(want, Dnorm(qr, q.Len(), g, j).Dist)
	}
	if got := MinDnorm(qr, q.Len(), g); !almostEqual(got, want) {
		t.Errorf("MinDnorm = %g, want %g", got, want)
	}
}

// TestSweepMinEqualsExhaustiveMin cross-validates the O(r) window sweep
// used by Search against the per-target Definition 5 evaluation: their
// minima must agree on arbitrary data.
func TestSweepMinEqualsExhaustiveMin(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cfg := PartitionConfig{QueryExtent: 0.3, MaxPoints: 12}
	for trial := 0; trial < 60; trial++ {
		var s *Sequence
		if trial%2 == 0 {
			s = randWalkSeq(rng, 5+rng.Intn(200), 3)
		} else {
			s = randSeq(rng, 5+rng.Intn(200), 3)
		}
		g, err := NewSegmented(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		qCount := 1 + rng.Intn(60)
		qr := geom.BoundingRect(randWalkSeq(rng, 8, 3).Points)
		calc := newDnormCalc(qr, qCount, g)
		exhaustive := math.Inf(1)
		for j := range g.MBRs {
			exhaustive = math.Min(exhaustive, calc.dnorm(j).Dist)
		}
		swept := calc.sweep(math.Inf(-1), nil)
		if !almostEqual(swept, exhaustive) {
			t.Fatalf("trial %d (qCount=%d, %d MBRs): sweep %g != exhaustive %g",
				trial, qCount, len(g.MBRs), swept, exhaustive)
		}
	}
}

// TestSweepEmitsEveryQualifyingTarget checks that for any target j with
// Dnorm(j) ≤ eps, the sweep emits at least one window covering it — the
// property phase 3's hit detection relies on.
func TestSweepEmitsEveryQualifyingTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	cfg := PartitionConfig{QueryExtent: 0.3, MaxPoints: 10}
	for trial := 0; trial < 40; trial++ {
		s := randWalkSeq(rng, 20+rng.Intn(150), 3)
		g, _ := NewSegmented(s, cfg)
		qCount := 5 + rng.Intn(40)
		qr := geom.BoundingRect(randWalkSeq(rng, 8, 3).Points)
		eps := 0.05 + rng.Float64()*0.4
		calc := newDnormCalc(qr, qCount, g)
		var emitted IntervalSet
		calc.sweep(eps, func(_ float64, pstart, pend int) {
			emitted.Add(PointRange{Start: pstart, End: pend})
		})
		for j := range g.MBRs {
			res := calc.dnorm(j)
			if res.Dist <= eps {
				// The target's own minimal window must be covered by the
				// union of emitted windows.
				if !emitted.Contains(res.PStart) {
					t.Fatalf("trial %d: Dnorm(%d)=%g <= eps %g but window start %d not emitted (%v)",
						trial, j, res.Dist, eps, res.PStart, emitted.String())
				}
			}
		}
	}
}

func TestDnormWindowCoversExactlyQCountPoints(t *testing.T) {
	// Whenever neighbor absorption happens (target smaller than query MBR
	// and the sequence long enough), the involved point range must hold
	// exactly qCount points.
	rng := rand.New(rand.NewSource(24))
	cfg := PartitionConfig{QueryExtent: 0.3, MaxPoints: 16}
	for trial := 0; trial < 40; trial++ {
		s := randWalkSeq(rng, 100+rng.Intn(100), 3)
		g, _ := NewSegmented(s, cfg)
		qCount := 20 + rng.Intn(30)
		qr := geom.BoundingRect(randWalkSeq(rng, 10, 3).Points)
		calc := newDnormCalc(qr, qCount, g)
		for j := range g.MBRs {
			if g.MBRs[j].Count() >= qCount {
				continue
			}
			res := calc.dnorm(j)
			if got := res.PEnd - res.PStart; got != qCount {
				t.Fatalf("window [%d,%d) covers %d points, want %d", res.PStart, res.PEnd, got, qCount)
			}
			if res.PStart < 0 || res.PEnd > s.Len() {
				t.Fatalf("window [%d,%d) outside sequence of %d points", res.PStart, res.PEnd, s.Len())
			}
		}
	}
}
