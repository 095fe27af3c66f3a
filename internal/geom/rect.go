package geom

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an n-dimensional hyper-rectangle (an MBR), represented as the
// paper represents it: two endpoints of its major diagonal, the low point L
// and the high point H, with L[i] <= H[i] for every axis i.
//
// The zero Rect (nil slices) is "empty": it contains nothing and extending
// it by a point yields the degenerate rectangle at that point.
type Rect struct {
	// L and H are the low and high corners; L[k] ≤ H[k] on every axis of
	// a valid rectangle. Hot paths may alias them into columnar bound
	// arrays (see core.Segmented), so treat them as read-only views.
	L, H Point
}

// NewRect builds a rectangle from its low and high corners. It returns an
// error if the dimensions differ or any low coordinate exceeds its high.
func NewRect(lo, hi Point) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("%w: lo dim %d, hi dim %d", ErrDimensionMismatch, len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("geom: invalid rect: lo[%d]=%g > hi[%d]=%g", i, lo[i], i, hi[i])
		}
	}
	return Rect{L: lo.Clone(), H: hi.Clone()}, nil
}

// MustRect is NewRect that panics on error; for literals in tests and
// internal construction from already-validated data.
func MustRect(lo, hi Point) Rect {
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// RectFromPoint returns the degenerate rectangle containing exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{L: p.Clone(), H: p.Clone()}
}

// BoundingRect returns the minimum bounding rectangle of the given points.
// It returns the empty Rect when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := RectFromPoint(pts[0])
	for _, p := range pts[1:] {
		r.ExtendPoint(p)
	}
	return r
}

// IsEmpty reports whether r is the empty rectangle.
func (r Rect) IsEmpty() bool { return len(r.L) == 0 }

// Dim returns the dimensionality of r (0 for the empty rectangle).
func (r Rect) Dim() int { return len(r.L) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	if r.IsEmpty() {
		return Rect{}
	}
	return Rect{L: r.L.Clone(), H: r.H.Clone()}
}

// Equal reports whether r and s are the same rectangle.
func (r Rect) Equal(s Rect) bool { return r.L.Equal(s.L) && r.H.Equal(s.H) }

// Side returns the extent of r along axis k (the paper's L_k when sizing
// MBRs for the MCOST function).
func (r Rect) Side(k int) float64 { return r.H[k] - r.L[k] }

// Center returns the center point of r as a fresh allocation. Hot loops
// that compute many centers should use CenterInto with a reused buffer.
func (r Rect) Center() Point {
	c := make(Point, len(r.L))
	r.CenterInto(c)
	return c
}

// CenterInto writes the center point of r into dst, which must have r's
// dimensionality. It is the allocation-free form of Center for hot loops
// (e.g. the R*-tree reinsertion distance sort) that compute centers per
// entry.
func (r Rect) CenterInto(dst Point) {
	mustSameDim(r.L, dst)
	for i := range r.L {
		dst[i] = (r.L[i] + r.H[i]) / 2
	}
}

// Volume returns the n-dimensional volume of r (0 for the empty rect).
func (r Rect) Volume() float64 {
	if r.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := range r.L {
		v *= r.H[i] - r.L[i]
	}
	return v
}

// Margin returns the sum of the edge lengths of r — the R*-tree split
// criterion's "margin" (perimeter generalization).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	var m float64
	for i := range r.L {
		m += r.H[i] - r.L[i]
	}
	return m
}

// ExtendPoint grows r in place so that it contains p.
func (r *Rect) ExtendPoint(p Point) {
	if r.IsEmpty() {
		*r = RectFromPoint(p)
		return
	}
	mustSameDim(r.L, p)
	for i, v := range p {
		if v < r.L[i] {
			r.L[i] = v
		}
		if v > r.H[i] {
			r.H[i] = v
		}
	}
}

// ExtendRect grows r in place so that it contains s.
func (r *Rect) ExtendRect(s Rect) {
	if s.IsEmpty() {
		return
	}
	if r.IsEmpty() {
		*r = s.Clone()
		return
	}
	mustSameDim(r.L, s.L)
	for i := range s.L {
		if s.L[i] < r.L[i] {
			r.L[i] = s.L[i]
		}
		if s.H[i] > r.H[i] {
			r.H[i] = s.H[i]
		}
	}
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	u := r.Clone()
	u.ExtendRect(s)
	return u
}

// ContainsPoint reports whether p lies inside r (boundaries inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	if r.IsEmpty() || len(p) != len(r.L) {
		return false
	}
	for i, v := range p {
		if v < r.L[i] || v > r.H[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() || r.Dim() != s.Dim() {
		return false
	}
	for i := range r.L {
		if s.L[i] < r.L[i] || s.H[i] > r.H[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() || r.Dim() != s.Dim() {
		return false
	}
	for i := range r.L {
		if s.H[i] < r.L[i] || s.L[i] > r.H[i] {
			return false
		}
	}
	return true
}

// IntersectionVolume returns the volume of the overlap of r and s
// (0 when disjoint). Used by the R*-tree split heuristics.
func (r Rect) IntersectionVolume(s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() || r.Dim() != s.Dim() {
		return 0
	}
	v := 1.0
	for i := range r.L {
		lo := math.Max(r.L[i], s.L[i])
		hi := math.Min(r.H[i], s.H[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Enlargement returns the volume increase of r needed to include s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Volume() - r.Volume()
}

// MinDist returns the paper's Dmbr(A,B) (Definition 4): the minimum
// Euclidean distance between two hyper-rectangles. Per axis k the gap x_k
// is
//
//	l_B,k - h_A,k   if h_A,k < l_B,k   (B entirely to the right of A)
//	l_A,k - h_B,k   if h_B,k < l_A,k   (B entirely to the left of A)
//	0               otherwise          (the projections overlap)
//
// and Dmbr = sqrt(Σ x_k²). It is 0 when the rectangles intersect, matching
// the left case of the paper's Figure 2.
//
// MinDist is the result-reporting form; candidate selection should prefer
// MinDistSq compared against ε², which skips the square root (sqrt is
// monotone, so the comparisons agree).
func (r Rect) MinDist(s Rect) float64 {
	return math.Sqrt(r.MinDistSq(s))
}

// MinDistSq returns MinDist(r, s)² without taking the square root — the
// pruning-kernel form of the paper's Dmbr. Because sqrt is strictly
// monotone, Dmbr(A,B) ≤ ε exactly when MinDistSq(A,B) ≤ ε², so phase-2
// candidate selection runs entirely in squared space and defers the sqrt
// to emitted results. The accumulation order matches MinDist's, so
// MinDist == Sqrt(MinDistSq) bit-for-bit.
func (r Rect) MinDistSq(s Rect) float64 {
	mustSameDim(r.L, s.L)
	return MinDistSqLH(r.L, r.H, s.L, s.H)
}

// MinDistPoint returns the minimum Euclidean distance from point p to
// rectangle r (0 if p is inside r). Prefer MinDistPointSq against ε² in
// pruning loops.
func (r Rect) MinDistPoint(p Point) float64 {
	return math.Sqrt(r.MinDistPointSq(p))
}

// MinDistPointSq returns MinDistPoint(r, p)² without the square root —
// the squared-space kernel for point-to-rectangle pruning, degenerate
// case of MinDistSq (a point is a zero-extent rectangle).
func (r Rect) MinDistPointSq(p Point) float64 {
	mustSameDim(r.L, p)
	return MinDistSqLH(p, p, r.L, r.H)
}

// String renders r as "[L -> H]".
func (r Rect) String() string {
	if r.IsEmpty() {
		return "[empty]"
	}
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(r.L.String())
	b.WriteString(" -> ")
	b.WriteString(r.H.String())
	b.WriteByte(']')
	return b.String()
}
