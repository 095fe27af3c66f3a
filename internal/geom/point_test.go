package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	if a == b { // covers infinities produced by extreme quick-check inputs
		return true
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"identical", Point{0.5, 0.5, 0.5}, Point{0.5, 0.5, 0.5}, 0},
		{"unit apart on one axis", Point{0, 0, 0}, Point{1, 0, 0}, 1},
		{"3-4-5 triangle", Point{0, 0}, Point{3, 4}, 5},
		{"unit cube diagonal 3d", Point{0, 0, 0}, Point{1, 1, 1}, math.Sqrt(3)},
		{"1d", Point{0.25}, Point{0.75}, 0.5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); !almostEqual(got, tc.want) {
				t.Errorf("Dist(%v,%v) = %g, want %g", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestPointDistSymmetry(t *testing.T) {
	f := func(a, b [4]float64) bool {
		p, q := Point(a[:]), Point(b[:])
		return almostEqual(p.Dist(q), q.Dist(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDistTriangleInequality(t *testing.T) {
	f := func(a, b, c [3]float64) bool {
		p, q, r := Point(a[:]), Point(b[:]), Point(c[:])
		return p.Dist(r) <= p.Dist(q)+q.Dist(r)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDistNonNegativeAndIdentity(t *testing.T) {
	f := func(a [5]float64) bool {
		p := Point(a[:])
		return p.Dist(p) == 0 && p.Dist(Point{0, 0, 0, 0, 0}) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDist2MatchesDist(t *testing.T) {
	f := func(a, b [3]float64) bool {
		p, q := Point(a[:]), Point(b[:])
		return almostEqual(p.Dist(q)*p.Dist(q), p.Dist2(q))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDistPanicsOnDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Point{1, 2}.Dist(Point{1, 2, 3})
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if got := p.Add(q); !got.Equal(Point{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); !got.Equal(Point{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Equal(Point{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Mid(q); !got.Equal(Point{2.5, 3.5, 4.5}) {
		t.Errorf("Mid = %v", got)
	}
}

func TestPointCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestPointEqual(t *testing.T) {
	if !(Point{1, 2}).Equal(Point{1, 2}) {
		t.Error("equal points reported unequal")
	}
	if (Point{1, 2}).Equal(Point{1, 2, 3}) {
		t.Error("different-dim points reported equal")
	}
	if (Point{1, 2}).Equal(Point{1, 3}) {
		t.Error("different points reported equal")
	}
}

func TestPointClamp(t *testing.T) {
	p := Point{-0.5, 0.5, 1.5}
	got := p.Clamp(0, 1)
	if !got.Equal(Point{0, 0.5, 1}) {
		t.Errorf("Clamp = %v", got)
	}
	if p[0] != -0.5 {
		t.Error("Clamp mutated receiver")
	}
}

func TestPointInUnitCube(t *testing.T) {
	if !(Point{0, 0.5, 1}).InUnitCube() {
		t.Error("boundary point should be in cube")
	}
	if (Point{0, 1.0001}).InUnitCube() {
		t.Error("out-of-range point reported in cube")
	}
}

func TestMaxDiagonal(t *testing.T) {
	if got := MaxDiagonal(3); !almostEqual(got, math.Sqrt(3)) {
		t.Errorf("MaxDiagonal(3) = %g", got)
	}
	if got := MaxDiagonal(1); !almostEqual(got, 1) {
		t.Errorf("MaxDiagonal(1) = %g", got)
	}
}

func TestDistToSimilarity(t *testing.T) {
	if got := DistToSimilarity(0, 3); got != 1 {
		t.Errorf("identical objects similarity = %g, want 1", got)
	}
	if got := DistToSimilarity(math.Sqrt(3), 3); got != 0 {
		t.Errorf("max-distance similarity = %g, want 0", got)
	}
	if got := DistToSimilarity(10, 3); got != 0 {
		t.Errorf("beyond-max similarity = %g, want clamped 0", got)
	}
	if got := DistToSimilarity(0.5, 0); got != 0 {
		t.Errorf("degenerate dimension similarity = %g, want 0", got)
	}
	mid := DistToSimilarity(math.Sqrt(3)/2, 3)
	if !almostEqual(mid, 0.5) {
		t.Errorf("half-diagonal similarity = %g, want 0.5", mid)
	}
}

func TestDistToSimilarityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := rng.Float64() * math.Sqrt(3)
		b := rng.Float64() * math.Sqrt(3)
		if a > b {
			a, b = b, a
		}
		if DistToSimilarity(a, 3) < DistToSimilarity(b, 3) {
			t.Fatalf("similarity not monotonically decreasing: d=%g -> %g, d=%g -> %g",
				a, DistToSimilarity(a, 3), b, DistToSimilarity(b, 3))
		}
	}
}

func TestPointString(t *testing.T) {
	got := Point{0.5, 0.25}.String()
	want := "(0.5000, 0.2500)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
