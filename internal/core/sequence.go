// Package core implements the paper's contribution: multidimensional data
// sequences, the MCOST partitioning algorithm that segments them into
// minimum bounding rectangles, the distance metrics D, Dmean, Dmbr and
// Dnorm, solution intervals, and the three-phase MBR-based similarity
// search over an R*-tree index, together with the exact sequential-scan
// baseline it is evaluated against.
package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/geom"
)

// Sequence is a multidimensional data sequence (Definition 1): a series of
// n-dimensional vectors, e.g. one color-feature point per video frame.
//
// A sequence comes in two forms, read the same way through Len, Dim, At and
// Flat. The input form is Points, how a caller builds a sequence to add or
// to query with. The stored form is one flat run of coordinates: every
// sequence a database, a store, a transaction node or a shard holds is
// stored, with Points nil and its coordinates the Segmented's Flat, so a
// stored point costs its coordinates and no slice header.
type Sequence struct {
	// ID identifies the sequence within a Database. Databases assign it on
	// Add; standalone sequences may leave it zero.
	ID uint32
	// Label is an optional human-readable name (file name, ticker, …).
	Label string
	// Points is the input form: the ordered component vectors, all of one
	// dimensionality. Nil in a stored sequence; read through At.
	Points []geom.Point

	// flat and dim are the stored form: point i is flat[i*dim:(i+1)*dim].
	// dim is 0 in the input form.
	flat []float64
	dim  int
}

// ErrEmptySequence is returned when an operation needs at least one point.
var ErrEmptySequence = errors.New("core: empty sequence")

// ErrNonFinite is returned for a sequence holding a NaN or ±Inf
// coordinate. Every distance kernel assumes finite input — the MBR gap
// subtracts bounds, and Inf − Inf is NaN — so Validate keeps such points
// out of the database and out of every query.
var ErrNonFinite = errors.New("core: non-finite coordinate")

// NewSequence validates points and wraps them in a Sequence.
func NewSequence(label string, points []geom.Point) (*Sequence, error) {
	s := &Sequence{Label: label, Points: points}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewFlat validates flat as points of dim coordinates each (point i at
// flat[i*dim:(i+1)*dim]) and returns the stored sequence over it: flat is
// kept, not copied, and the caller must not modify it afterwards. It is
// the constructor for a loader that decodes coordinates into one run.
func NewFlat(label string, dim int, flat []float64) (*Sequence, error) {
	if dim < 1 {
		return nil, errors.New("core: zero-dimensional point")
	}
	if len(flat)%dim != 0 {
		return nil, fmt.Errorf("core: %d coordinates are not whole points of dim %d: %w", len(flat), dim, geom.ErrDimensionMismatch)
	}
	s := &Sequence{Label: label, flat: flat, dim: dim}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// storedOver returns the stored sequence with s's ID and Label over flat,
// dim coordinates a point.
func storedOver(s *Sequence, dim int, flat []float64) *Sequence {
	return &Sequence{ID: s.ID, Label: s.Label, flat: flat, dim: dim}
}

// nonFinite returns the index of p's first NaN or ±Inf coordinate, or -1
// when every coordinate is finite: only for those three is v − v not 0.
func nonFinite(p geom.Point) int {
	for k, v := range p {
		if v-v != 0 {
			return k
		}
	}
	return -1
}

// Validate checks that the sequence is non-empty, dimensionally consistent
// and finite in every coordinate (ErrNonFinite otherwise).
func (s *Sequence) Validate() error {
	n, dim := s.Len(), s.Dim()
	if n == 0 {
		return ErrEmptySequence
	}
	if dim == 0 {
		return errors.New("core: zero-dimensional point")
	}
	if s.dim > 0 {
		// The stored form holds whole points by construction: one scan of
		// its run of coordinates, with no slice cut per point.
		if k := nonFinite(s.flat); k >= 0 {
			return fmt.Errorf("core: point %d coordinate %d is %v: %w", k/dim, k%dim, s.flat[k], ErrNonFinite)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		p := s.At(i)
		if len(p) != dim {
			return fmt.Errorf("core: point %d has dim %d, want %d: %w", i, len(p), dim, geom.ErrDimensionMismatch)
		}
		if k := nonFinite(p); k >= 0 {
			return fmt.Errorf("core: point %d coordinate %d is %v: %w", i, k, p[k], ErrNonFinite)
		}
	}
	return nil
}

// Len returns the number of points.
func (s *Sequence) Len() int {
	if s.dim > 0 {
		return len(s.flat) / s.dim
	}
	return len(s.Points)
}

// Dim returns the dimensionality (0 for an empty sequence).
func (s *Sequence) Dim() int {
	if s.dim > 0 || len(s.Points) == 0 {
		return s.dim
	}
	return len(s.Points[0])
}

// At returns point i. It does not allocate: the point is a view of the
// sequence's coordinates, capped so that an append to it reallocates, and
// callers must not write through it.
func (s *Sequence) At(i int) geom.Point {
	if d := s.dim; d > 0 {
		return s.flat[i*d : (i+1)*d : (i+1)*d]
	}
	p := s.Points[i]
	return p[:len(p):len(p)]
}

// Flat returns the coordinates as one run, point i at
// [i*Dim(), (i+1)*Dim()). A stored sequence returns its own array, which
// callers must not modify; an input-form one a fresh copy.
func (s *Sequence) Flat() []float64 {
	if s.dim > 0 {
		return s.flat
	}
	return s.appendFlat(nil)
}

// appendFlat appends the coordinates to dst, point after point.
func (s *Sequence) appendFlat(dst []float64) []float64 {
	if s.dim > 0 {
		return append(dst, s.flat...)
	}
	for _, p := range s.Points {
		dst = append(dst, p...)
	}
	return dst
}

// Slice returns the subsequence S[i:j] (half-open, 0-based) as points
// sharing the sequence's coordinates, mirroring the paper's S[i:j]
// notation (which is 1-based and inclusive; callers of the public API use
// Go conventions). For a stored sequence it allocates the j−i point
// headers; a kernel reads Flat instead.
func (s *Sequence) Slice(i, j int) []geom.Point {
	if s.dim == 0 {
		return s.Points[i:j]
	}
	return s.appendViews(make([]geom.Point, 0, j-i), i, j)
}

// appendViews appends points i to j−1 to dst as views (At).
func (s *Sequence) appendViews(dst []geom.Point, i, j int) []geom.Point {
	for ; i < j; i++ {
		dst = append(dst, s.At(i))
	}
	return dst
}

// Clone deep-copies the sequence, keeping its form.
func (s *Sequence) Clone() *Sequence {
	if s.dim > 0 {
		return storedOver(s, s.dim, slices.Clone(s.flat))
	}
	pts := make([]geom.Point, len(s.Points))
	for i, p := range s.Points {
		pts[i] = p.Clone()
	}
	return &Sequence{ID: s.ID, Label: s.Label, Points: pts}
}

// Bounds returns the MBR of the whole sequence.
func (s *Sequence) Bounds() geom.Rect {
	n := s.Len()
	if n == 0 {
		return geom.Rect{}
	}
	r := geom.RectFromPoint(s.At(0))
	for i := 1; i < n; i++ {
		r.ExtendPoint(s.At(i))
	}
	return r
}

// InUnitCube reports whether every point lies in [0,1]^n, the normalized
// space the paper's similarity mapping assumes.
func (s *Sequence) InUnitCube() bool {
	for i := range s.Len() {
		if !s.At(i).InUnitCube() {
			return false
		}
	}
	return true
}
