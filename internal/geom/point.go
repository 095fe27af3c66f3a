// Package geom provides the n-dimensional vector and hyper-rectangle
// primitives used throughout mdseq: points, minimum bounding rectangles
// (MBRs), and the Euclidean distance functions the paper's metrics are
// built from (point–point distance and the rectangle–rectangle minimum
// distance of Definition 4).
//
// All coordinates live in the normalized unit hyper-cube [0,1]^n unless a
// caller chooses otherwise; nothing in this package enforces the range, but
// the rest of mdseq assumes it when mapping distances to similarities.
package geom

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Point is an n-dimensional vector. The slice length is the
// dimensionality; points of different lengths are incomparable.
type Point []float64

// ErrDimensionMismatch is returned (or wrapped) by operations that combine
// geometric objects of different dimensionality.
var ErrDimensionMismatch = errors.New("geom: dimension mismatch")

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Clone returns a deep copy of p. It allocates; hot loops that only need
// coordinates should keep points in flat []float64 storage and use the
// stride-indexed kernels (DistSqFlat, MinDistSqBatch) or copy into a
// reused buffer instead of cloning per iteration.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates. It is the
// slice-based compatibility form; columnar storage can compare stride
// sub-slices directly without materializing Points.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Add returns p + q as a new point. It panics if dimensions differ; the
// arithmetic helpers are internal building blocks used on validated data.
func (p Point) Add(q Point) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q as a new point.
func (p Point) Sub(q Point) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns s·p as a new point.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] * s
	}
	return r
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = (p[i] + q[i]) / 2
	}
	return r
}

// Dist returns the Euclidean distance d(p,q) between two points
// (the paper's d(S1[i], S2[j])).
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.DistSq(q))
}

// DistSq returns the squared Euclidean distance between p and q — the
// kernel form used by every pruning comparison (compare against ε², take
// the sqrt only for emitted results). It is the hot inner loop of the
// sequential-scan baseline, so it avoids allocation; for points held in
// flat columnar storage use DistSqFlat on the stride sub-slices directly.
func (p Point) DistSq(q Point) float64 {
	mustSameDim(p, q)
	return DistSqFlat(p, q)
}

// Dist2 is a compatibility alias for DistSq, kept for existing callers.
func (p Point) Dist2(q Point) float64 { return p.DistSq(q) }

// Clamp returns a copy of p with every coordinate clamped to [lo, hi].
func (p Point) Clamp(lo, hi float64) Point {
	r := make(Point, len(p))
	for i, v := range p {
		r[i] = math.Min(hi, math.Max(lo, v))
	}
	return r
}

// InUnitCube reports whether every coordinate of p lies in [0,1].
func (p Point) InUnitCube() bool {
	for _, v := range p {
		if v < 0 || v > 1 {
			return false
		}
	}
	return true
}

// String renders p as "(x1, x2, …)" with short fixed precision.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4f", v)
	}
	b.WriteByte(')')
	return b.String()
}

// MaxDiagonal returns the length of the main diagonal of the unit
// hyper-cube of dimension n — the maximum possible distance between two
// points in normalized space (the paper: "the maximum allowable distance
// is sqrt(n), a diagonal of the cube").
func MaxDiagonal(n int) float64 { return math.Sqrt(float64(n)) }

// DistToSimilarity maps a distance in the unit cube of dimension n to a
// similarity in [0,1], 1 meaning identical. The paper notes the distance
// "will be easily mapped to the similarity"; we use the affine map the
// normalization invites: sim = 1 - dist/sqrt(n).
func DistToSimilarity(dist float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	s := 1 - dist/MaxDiagonal(n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func mustSameDim(p, q Point) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch: %d vs %d", len(p), len(q)))
	}
}
