package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestNewSequenceValidates(t *testing.T) {
	if _, err := NewSequence("ok", []geom.Point{{0.1, 0.2}}); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	if _, err := NewSequence("empty", nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := NewSequence("zero-dim", []geom.Point{{}}); err == nil {
		t.Error("zero-dim point accepted")
	}
	if _, err := NewSequence("ragged", []geom.Point{{0.1}, {0.1, 0.2}}); err == nil {
		t.Error("ragged sequence accepted")
	}
}

// TestNewFlatValidatesAndKeepsFlat: NewFlat refuses what NewSequence
// refuses, and what it accepts is stored over the caller's array.
func TestNewFlatValidatesAndKeepsFlat(t *testing.T) {
	flat := []float64{0.1, 0.9, 0.2, 0.8, 0.3, 0.7}
	s, err := NewFlat("abc", 2, flat)
	if err != nil {
		t.Fatal(err)
	}
	if s.Points != nil || s.Len() != 3 || s.Dim() != 2 || s.Label != "abc" {
		t.Fatalf("NewFlat: Points %v, Len %d, Dim %d, Label %q", s.Points, s.Len(), s.Dim(), s.Label)
	}
	if !s.At(2).Equal(geom.Point{0.3, 0.7}) || &s.Flat()[0] != &flat[0] {
		t.Errorf("NewFlat: At(2) = %v, or Flat is a copy", s.At(2))
	}
	for _, tc := range []struct {
		name string
		dim  int
		flat []float64
		want error
	}{
		{"empty", 2, nil, ErrEmptySequence},
		{"zero-dim", 0, []float64{0.1}, nil},
		{"ragged", 2, []float64{0.1, 0.2, 0.3}, geom.ErrDimensionMismatch},
		{"NaN", 2, []float64{0.1, math.NaN()}, ErrNonFinite},
		{"Inf", 1, []float64{math.Inf(-1)}, ErrNonFinite},
	} {
		_, err := NewFlat(tc.name, tc.dim, tc.flat)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestSequenceAccessors(t *testing.T) {
	s, err := NewSequence("abc", []geom.Point{{0.1, 0.9}, {0.2, 0.8}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", s.Len(), s.Dim())
	}
	if (&Sequence{}).Dim() != 0 {
		t.Error("empty Dim should be 0")
	}
	sl := s.Slice(1, 3)
	if len(sl) != 2 || !sl[0].Equal(geom.Point{0.2, 0.8}) {
		t.Errorf("Slice = %v", sl)
	}
	b := s.Bounds()
	want := geom.MustRect(geom.Point{0.1, 0.7}, geom.Point{0.3, 0.9})
	if !b.Equal(want) {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
}

func TestSequenceCloneDeep(t *testing.T) {
	s, _ := NewSequence("x", []geom.Point{{0.5, 0.5}})
	s.ID = 42
	c := s.Clone()
	c.Points[0][0] = 0.9
	if s.Points[0][0] != 0.5 {
		t.Error("Clone shares point storage")
	}
	if c.ID != 42 || c.Label != "x" {
		t.Error("Clone lost metadata")
	}
}

func TestSequenceInUnitCube(t *testing.T) {
	in, _ := NewSequence("in", []geom.Point{{0, 0.5, 1}})
	if !in.InUnitCube() {
		t.Error("boundary sequence should be in cube")
	}
	out, _ := NewSequence("out", []geom.Point{{0.5, 0.5, 1.01}})
	if out.InUnitCube() {
		t.Error("escaping sequence reported in cube")
	}
}

func TestSegmentedRoundTripThroughDatabase(t *testing.T) {
	// The Segmented a Database stores holds its own stored copy of the
	// sequence added: the same id, label and coordinates, read through the
	// accessors, with no input-form points, over the Segmented's Flat. The
	// caller's sequence is left as it was, but for its ID.
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(140))
	s := randWalkSeq(rng, 60, 3)
	s.Label = "the-one"
	orig := s.Clone()
	id, err := db.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	g := db.Segmented(id)
	if g.Seq == s || g.Seq.Points != nil {
		t.Error("database holds the caller's sequence, not a stored copy")
	}
	if g.Seq.ID != id || g.Seq.Label != s.Label || !sameCoords(g.Seq, s) {
		t.Errorf("stored sequence %d %q differs from the one added", g.Seq.ID, g.Seq.Label)
	}
	if f := g.Seq.Flat(); len(f) == 0 || &f[0] != &g.Flat[0] || len(f) != len(g.Flat) {
		t.Error("stored sequence is not a view of the Segmented's Flat")
	}
	if s.ID != id {
		t.Errorf("Add did not stamp ID: %d vs %d", s.ID, id)
	}
	if s.Points == nil || !sameCoords(orig, s) {
		t.Error("Add modified the caller's points")
	}
}

// sameCoords reports whether a and b hold the same points, bit for bit,
// whatever their forms.
func sameCoords(a, b *Sequence) bool {
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		return false
	}
	for i := range a.Len() {
		p, q := a.At(i), b.At(i)
		for k := range p {
			if math.Float64bits(p[k]) != math.Float64bits(q[k]) {
				return false
			}
		}
	}
	return true
}
