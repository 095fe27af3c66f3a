package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randRect builds a valid random rectangle in [0,1]^n from a generator.
func randRect(rng *rand.Rand, n int) Rect {
	lo := make(Point, n)
	hi := make(Point, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return Rect{L: lo, H: hi}
}

// randPointIn returns a uniform random point inside r.
func randPointIn(rng *rand.Rand, r Rect) Point {
	p := make(Point, r.Dim())
	for i := range p {
		p[i] = r.L[i] + rng.Float64()*(r.H[i]-r.L[i])
	}
	return p
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect(Point{0, 0}, Point{1, 1}); err != nil {
		t.Errorf("valid rect rejected: %v", err)
	}
	if _, err := NewRect(Point{0, 2}, Point{1, 1}); err == nil {
		t.Error("inverted rect accepted")
	}
	if _, err := NewRect(Point{0}, Point{1, 1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMustRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRect should panic on invalid input")
		}
	}()
	MustRect(Point{1}, Point{0})
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{0.2, 0.8}, {0.5, 0.1}, {0.9, 0.4}}
	r := BoundingRect(pts)
	want := MustRect(Point{0.2, 0.1}, Point{0.9, 0.8})
	if !r.Equal(want) {
		t.Errorf("BoundingRect = %v, want %v", r, want)
	}
	if !BoundingRect(nil).IsEmpty() {
		t.Error("BoundingRect(nil) should be empty")
	}
}

func TestBoundingRectContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		pts := make([]Point, 1+rng.Intn(20))
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		r := BoundingRect(pts)
		for _, p := range pts {
			if !r.ContainsPoint(p) {
				t.Fatalf("bounding rect %v does not contain %v", r, p)
			}
		}
	}
}

func TestRectVolumeMarginCenter(t *testing.T) {
	r := MustRect(Point{0, 0, 0}, Point{1, 2, 3})
	if got := r.Volume(); !almostEqual(got, 6) {
		t.Errorf("Volume = %g, want 6", got)
	}
	if got := r.Margin(); !almostEqual(got, 6) {
		t.Errorf("Margin = %g, want 6", got)
	}
	if got := r.Center(); !got.Equal(Point{0.5, 1, 1.5}) {
		t.Errorf("Center = %v", got)
	}
	if got := r.Side(2); !almostEqual(got, 3) {
		t.Errorf("Side(2) = %g, want 3", got)
	}
	if got := (Rect{}).Volume(); got != 0 {
		t.Errorf("empty Volume = %g", got)
	}
}

func TestRectContainment(t *testing.T) {
	outer := MustRect(Point{0, 0}, Point{1, 1})
	inner := MustRect(Point{0.2, 0.2}, Point{0.8, 0.8})
	if !outer.ContainsRect(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsRect(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
	if !outer.ContainsPoint(Point{1, 1}) {
		t.Error("boundary point should be contained")
	}
	if outer.ContainsPoint(Point{1.01, 0.5}) {
		t.Error("outside point reported contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := MustRect(Point{0, 0}, Point{0.5, 0.5})
	b := MustRect(Point{0.4, 0.4}, Point{1, 1})
	c := MustRect(Point{0.6, 0.6}, Point{1, 1})
	d := MustRect(Point{0.5, 0.5}, Point{0.7, 0.7}) // touches a at a corner
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	if !a.Intersects(d) {
		t.Error("corner-touching rects should intersect (closed rects)")
	}
}

func TestRectUnionAndExtend(t *testing.T) {
	a := MustRect(Point{0, 0}, Point{0.3, 0.3})
	b := MustRect(Point{0.5, 0.6}, Point{0.9, 0.8})
	u := a.Union(b)
	want := MustRect(Point{0, 0}, Point{0.9, 0.8})
	if !u.Equal(want) {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if !a.Equal(MustRect(Point{0, 0}, Point{0.3, 0.3})) {
		t.Error("Union mutated receiver")
	}

	var e Rect
	e.ExtendRect(a)
	if !e.Equal(a) {
		t.Errorf("extending empty rect = %v, want %v", e, a)
	}
	e.ExtendPoint(Point{1, 1})
	if !e.Equal(MustRect(Point{0, 0}, Point{1, 1})) {
		t.Errorf("ExtendPoint = %v", e)
	}
}

func TestRectEnlargement(t *testing.T) {
	a := MustRect(Point{0, 0}, Point{1, 1})
	inside := MustRect(Point{0.2, 0.2}, Point{0.4, 0.4})
	if got := a.Enlargement(inside); !almostEqual(got, 0) {
		t.Errorf("Enlargement for contained rect = %g, want 0", got)
	}
	right := MustRect(Point{1, 0}, Point{2, 1})
	if got := a.Enlargement(right); !almostEqual(got, 1) {
		t.Errorf("Enlargement = %g, want 1", got)
	}
}

func TestRectIntersectionVolume(t *testing.T) {
	a := MustRect(Point{0, 0}, Point{1, 1})
	b := MustRect(Point{0.5, 0.5}, Point{1.5, 1.5})
	if got := a.IntersectionVolume(b); !almostEqual(got, 0.25) {
		t.Errorf("IntersectionVolume = %g, want 0.25", got)
	}
	c := MustRect(Point{2, 2}, Point{3, 3})
	if got := a.IntersectionVolume(c); got != 0 {
		t.Errorf("disjoint IntersectionVolume = %g, want 0", got)
	}
}

// TestMinDist covers the three placements of the paper's Figure 2:
// overlapping (distance 0), separated on one axis, separated on both axes.
func TestMinDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Rect
		want float64
	}{
		{
			"overlapping -> 0 (figure 2 left)",
			MustRect(Point{0, 0}, Point{0.5, 0.5}),
			MustRect(Point{0.3, 0.3}, Point{0.8, 0.8}),
			0,
		},
		{
			"separated along x only (figure 2 middle)",
			MustRect(Point{0, 0}, Point{0.2, 0.5}),
			MustRect(Point{0.5, 0.1}, Point{0.9, 0.4}),
			0.3,
		},
		{
			"separated along both axes (figure 2 right)",
			MustRect(Point{0, 0}, Point{0.2, 0.2}),
			MustRect(Point{0.5, 0.6}, Point{0.9, 0.9}),
			math.Sqrt(0.3*0.3 + 0.4*0.4),
		},
		{
			"touching edges -> 0",
			MustRect(Point{0, 0}, Point{0.5, 0.5}),
			MustRect(Point{0.5, 0}, Point{1, 0.5}),
			0,
		},
		{
			"3d separation on one axis",
			MustRect(Point{0, 0, 0}, Point{1, 1, 0.1}),
			MustRect(Point{0, 0, 0.6}, Point{1, 1, 1}),
			0.5,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.MinDist(tc.b); !almostEqual(got, tc.want) {
				t.Errorf("MinDist = %g, want %g", got, tc.want)
			}
			if got := tc.b.MinDist(tc.a); !almostEqual(got, tc.want) {
				t.Errorf("MinDist not symmetric: %g, want %g", got, tc.want)
			}
		})
	}
}

// TestMinDistLowerBoundsPointPairs verifies Observation 1 of the paper:
// Dmbr(A,B) <= min over point pairs (a in A, b in B) of d(a,b).
func TestMinDistLowerBoundsPointPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		a := randRect(rng, 3)
		b := randRect(rng, 3)
		dm := a.MinDist(b)
		for i := 0; i < 10; i++ {
			p := randPointIn(rng, a)
			q := randPointIn(rng, b)
			if d := p.Dist(q); d < dm-1e-9 {
				t.Fatalf("point pair distance %g < MinDist %g for %v %v", d, dm, a, b)
			}
		}
	}
}

func TestMinDistPoint(t *testing.T) {
	r := MustRect(Point{0, 0}, Point{1, 1})
	if got := r.MinDistPoint(Point{0.5, 0.5}); got != 0 {
		t.Errorf("inside point MinDistPoint = %g, want 0", got)
	}
	if got := r.MinDistPoint(Point{2, 1}); !almostEqual(got, 1) {
		t.Errorf("MinDistPoint = %g, want 1", got)
	}
	if got := r.MinDistPoint(Point{2, 2}); !almostEqual(got, math.Sqrt2) {
		t.Errorf("corner MinDistPoint = %g, want sqrt(2)", got)
	}
}

func TestMinDistPointAgreesWithDegenerateRect(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 500; trial++ {
		r := randRect(rng, 2)
		p := Point{rng.Float64() * 2, rng.Float64() * 2} // may fall outside r
		if !almostEqual(r.MinDistPoint(p), r.MinDist(RectFromPoint(p))) {
			t.Fatalf("MinDistPoint %g != MinDist to degenerate rect %g for %v %v",
				r.MinDistPoint(p), r.MinDist(RectFromPoint(p)), r, p)
		}
	}
}

func TestMinDistZeroIffIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 500; trial++ {
		a := randRect(rng, 2)
		b := randRect(rng, 2)
		zero := a.MinDist(b) == 0
		if zero != a.Intersects(b) {
			t.Fatalf("MinDist==0 (%v) disagrees with Intersects (%v) for %v %v",
				zero, a.Intersects(b), a, b)
		}
	}
}

func TestRectCloneIndependence(t *testing.T) {
	r := MustRect(Point{0, 0}, Point{1, 1})
	c := r.Clone()
	c.L[0] = 0.5
	if r.L[0] != 0 {
		t.Error("Clone shares storage with original")
	}
	if !(Rect{}).Clone().IsEmpty() {
		t.Error("clone of empty rect should be empty")
	}
}

func TestRectString(t *testing.T) {
	if got := (Rect{}).String(); got != "[empty]" {
		t.Errorf("empty String = %q", got)
	}
	r := MustRect(Point{0}, Point{1})
	if got := r.String(); got != "[(0.0000) -> (1.0000)]" {
		t.Errorf("String = %q", got)
	}
}

// TestMinDistNeverExceedsMaxDist bounds MinDist by the largest distance
// between two points of the rectangles, found by brute force over their
// corners (where that maximum is attained).
func TestMinDistNeverExceedsMaxDist(t *testing.T) {
	corners := func(r Rect) []Point {
		out := make([]Point, 1<<r.Dim())
		for c := range out {
			p := make(Point, r.Dim())
			for k := range p {
				p[k] = r.L[k]
				if c&(1<<k) != 0 {
					p[k] = r.H[k]
				}
			}
			out[c] = p
		}
		return out
	}
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 500; trial++ {
		a := randRect(rng, 3)
		b := randRect(rng, 3)
		maxDist := 0.0
		for _, p := range corners(a) {
			for _, q := range corners(b) {
				maxDist = math.Max(maxDist, p.Dist(q))
			}
		}
		if a.MinDist(b) > maxDist+1e-12 {
			t.Fatalf("MinDist %g > point-pair maximum %g for %v %v", a.MinDist(b), maxDist, a, b)
		}
	}
}

func TestUnionMonotoneForMinDist(t *testing.T) {
	// Growing a rectangle can only reduce its distance to anything else —
	// the property the index's subtree pruning relies on.
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		a := randRect(rng, 3)
		b := randRect(rng, 3)
		q := randRect(rng, 3)
		u := a.Union(b)
		if u.MinDist(q) > a.MinDist(q)+1e-12 {
			t.Fatalf("union increased MinDist: %g > %g", u.MinDist(q), a.MinDist(q))
		}
	}
}
