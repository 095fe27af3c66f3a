package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/geom"
)

func pts1d(vals ...float64) []geom.Point {
	out := make([]geom.Point, len(vals))
	for i, v := range vals {
		out[i] = geom.Point{v}
	}
	return out
}

func TestDTWIdentical(t *testing.T) {
	a := pts1d(0.1, 0.5, 0.9, 0.5)
	d, err := DTW(a, a, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("DTW(a,a) = %g, want 0", d)
	}
}

func TestDTWKnownValue(t *testing.T) {
	// a = (0, 1, 0), b = (0, 0, 1, 1, 0, 0): DTW stretches each of a's
	// steps over b's repeats and pays nothing, while no rigid length-3
	// window of b equals a.
	a := pts1d(0, 1, 0)
	b := pts1d(0, 0, 1, 1, 0, 0)
	d, err := DTW(a, b, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("DTW = %g, want 0 (warping absorbs the repeat)", d)
	}
	// Euclidean sliding D cannot do this: no length-2 window of b equals a.
	if dd := DPoints(a, b); dd == 0 {
		t.Errorf("D = %g; expected > 0, the warping advantage", dd)
	}
}

func TestDTWSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		a := randWalkSeq(rng, 5+rng.Intn(30), 3).Points
		b := randWalkSeq(rng, 5+rng.Intn(30), 3).Points
		d1, err1 := DTW(a, b, -1)
		d2, err2 := DTW(b, a, -1)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !almostEqual(d1, d2) {
			t.Fatalf("DTW not symmetric: %g vs %g", d1, d2)
		}
	}
}

func TestDTWTimeShiftCheaperThanEuclidean(t *testing.T) {
	// A locally decelerated copy: DTW should consider it near-identical
	// while the rigid mean distance does not.
	base := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.7, 0.5, 0.3, 0.1}
	slowed := []float64{0.1, 0.1, 0.3, 0.3, 0.5, 0.7, 0.9, 0.7, 0.5, 0.3, 0.1}
	dtw, err := DTW(pts1d(base...), pts1d(slowed...), -1)
	if err != nil {
		t.Fatal(err)
	}
	euclid := DPoints(pts1d(base...), pts1d(slowed...))
	if dtw >= euclid {
		t.Errorf("DTW %g >= sliding D %g on warped copy", dtw, euclid)
	}
	if dtw > 1e-9 {
		t.Errorf("DTW of pure deceleration = %g, want 0", dtw)
	}
}

func TestDTWWindowConstraint(t *testing.T) {
	a := pts1d(0, 0.5, 1)
	b := pts1d(0, 0.5, 1)
	if _, err := DTW(a, b, 0); err != nil {
		t.Errorf("diagonal-only window on equal lengths should work: %v", err)
	}
	long := pts1d(0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
	if _, err := DTW(a, long, 1); err == nil {
		t.Error("window narrower than length difference accepted")
	}
	// Wider window accommodates the difference.
	if _, err := DTW(a, long, 4); err != nil {
		t.Errorf("wide window rejected: %v", err)
	}
}

func TestDTWEmpty(t *testing.T) {
	if _, err := DTW(nil, pts1d(1), -1); err == nil {
		t.Error("empty input accepted")
	}
}

// TestDTWRejectsMismatchedAndNonFinite holds DTW to the checks every other
// entry point makes. It read the dimension from a's first point only, so a
// pair of 2- and 3-dimensional sequences was 0 one way round and 5 the
// other, a ragged side was 0 and a NaN coordinate NaN — each with a nil
// error.
func TestDTWRejectsMismatchedAndNonFinite(t *testing.T) {
	flat := []geom.Point{{0, 0}, {1, 1}}
	for _, c := range []struct {
		name string
		a, b []geom.Point
		want error
	}{
		{"2 against 3 dimensions", flat, []geom.Point{{0, 0, 5}, {1, 1, 5}}, geom.ErrDimensionMismatch},
		{"3 against 2 dimensions", []geom.Point{{0, 0, 5}, {1, 1, 5}}, flat, geom.ErrDimensionMismatch},
		{"ragged first", []geom.Point{{0, 0}, {1}}, flat, geom.ErrDimensionMismatch},
		{"ragged second", flat, []geom.Point{{0, 0}, {1}}, geom.ErrDimensionMismatch},
		{"NaN first", []geom.Point{{0, 0}, {math.NaN(), 1}}, flat, ErrNonFinite},
		{"NaN second", flat, []geom.Point{{0, 0}, {1, math.NaN()}}, ErrNonFinite},
		{"+Inf", flat, []geom.Point{{math.Inf(1), 0}, {1, 1}}, ErrNonFinite},
		{"-Inf", []geom.Point{{0, math.Inf(-1)}, {1, 1}}, flat, ErrNonFinite},
	} {
		if d, err := DTW(c.a, c.b, -1); !errors.Is(err, c.want) {
			t.Errorf("%s: DTW = %v, error %v; want %v", c.name, d, err, c.want)
		}
	}
	if d, err := DTW(flat, []geom.Point{{0, 0}, {1, 1}, {1, 1}}, -1); err != nil || d != 0 {
		t.Errorf("a clean pair: DTW = %v, error %v; want 0", d, err)
	}
}

func TestDTWWindowMonotone(t *testing.T) {
	// Widening the band can only lower (or keep) the distance.
	rng := rand.New(rand.NewSource(2))
	a := randWalkSeq(rng, 25, 3).Points
	b := randWalkSeq(rng, 25, 3).Points
	prev := -1.0
	for _, w := range []int{25, 10, 5, 2, 0} {
		d, err := DTW(a, b, w)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && d < prev-1e-12 {
			t.Fatalf("narrower window %d gave smaller DTW %g < %g", w, d, prev)
		}
		prev = d
	}
}

func TestRefineDTW(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(3))
	seqs := populateWalks(t, db, 30, rng)
	q := &Sequence{Points: seqs[5].Points[10:40]}
	matches, _, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 2 {
		t.Skip("not enough matches to rank")
	}
	ranked := RefineDTW(q, matches, -1)
	if len(ranked) != len(matches) {
		t.Fatalf("RefineDTW dropped matches: %d vs %d", len(ranked), len(matches))
	}
	// The exact source should rank first (DTW 0 on its own subsequence).
	if ranked[0].SeqID != 5 {
		t.Errorf("top-ranked = %d, want the source sequence 5", ranked[0].SeqID)
	}
	// Ranks must be by ascending DTW; spot-check first two.
	d0 := mustDTW(t, q.Points, intervalPoints(ranked[0]))
	d1 := mustDTW(t, q.Points, intervalPoints(ranked[1]))
	if d0 > d1+1e-9 {
		t.Errorf("ranking not ascending: %g then %g", d0, d1)
	}
}

func intervalPoints(m Match) []geom.Point {
	var best PointRange
	for _, r := range m.Interval.Ranges() {
		if r.Len() > best.Len() {
			best = r
		}
	}
	return m.Seq.Points[best.Start:best.End]
}

func mustDTW(t *testing.T, a, b []geom.Point) float64 {
	t.Helper()
	d, err := DTW(a, b, -1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDTWAllocs is the DP-scratch pooling gate: after warming, repeated
// DTW calls reuse the pooled rows and point buffers and allocate nothing.
// Before the pooling fix every call allocated two DP rows per invocation.
func TestDTWAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops Puts under -race; alloc gate needs a non-race build")
	}
	rng := rand.New(rand.NewSource(41))
	a := randWalkSeq(rng, 60, 4).Points
	b := randWalkSeq(rng, 75, 4).Points
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		if _, err := DTW(a, b, -1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DTW(a, b, -1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed DTW allocates %.1f times per run, want 0", allocs)
	}
}

// TestRefineDTWCheckedTieAndTailOrder is the regression for the ranking
// rewrite: equal-distance matches must keep their input order (the old
// selection pass was not stable), and matches the window cannot score
// must keep their input order at the tail, with the unaligned count
// reported.
func TestRefineDTWCheckedTieAndTailOrder(t *testing.T) {
	mk := func(id uint32, pts []geom.Point) Match {
		seq := &Sequence{Label: "s", Points: pts}
		var iv IntervalSet
		iv.Add(PointRange{Start: 0, End: len(pts)})
		return Match{SeqID: id, Seq: seq, Interval: iv}
	}
	q := &Sequence{Label: "q", Points: pts1d(0, 0.5, 1)}
	same := pts1d(0, 0.5, 1)                    // DTW 0 — tied
	far := pts1d(0.9, 0.2, 0.7)                 // DTW > 0
	long := pts1d(0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // length diff 7 > window 2: unscorable

	in := []Match{mk(10, long), mk(11, same), mk(12, far), mk(13, same), mk(14, long), mk(15, same)}
	out, unaligned := RefineDTWChecked(q, in, 2)
	if unaligned != 2 {
		t.Fatalf("unaligned = %d, want 2", unaligned)
	}
	var order []uint32
	for _, m := range out {
		order = append(order, m.SeqID)
	}
	// Tied zero-distance matches 11, 13, 15 keep input order, then 12,
	// then the unscorable 10, 14 in input order at the tail.
	want := []uint32{11, 13, 15, 12, 10, 14}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// An empty interval is also unscorable and lands in the tail.
	empty := Match{SeqID: 20, Seq: &Sequence{Label: "e", Points: same}}
	out, unaligned = RefineDTWChecked(q, []Match{empty, mk(21, same)}, -1)
	if unaligned != 1 || out[0].SeqID != 21 || out[1].SeqID != 20 {
		t.Fatalf("empty-interval match not tailed: unaligned=%d order=%v,%v", unaligned, out[0].SeqID, out[1].SeqID)
	}
}
