package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// MBRInfo is one partition of a sequence: the minimum bounding rectangle of
// the points in the half-open index range [Start, End).
type MBRInfo struct {
	Rect       geom.Rect // bounding rectangle of the covered points
	Start, End int       // half-open point-index range the MBR covers
}

// Count returns the number of points the MBR encloses (the paper's m_j).
func (m MBRInfo) Count() int { return m.End - m.Start }

// PartitionConfig tunes the PARTITIONING_SEQUENCE algorithm of Section
// 3.4.3.
type PartitionConfig struct {
	// QueryExtent is the paper's Q_k + ε term in
	// MCOST = Π_k (L_k + Q_k + ε) / m: the anticipated query MBR side plus
	// threshold, folded into the cost of each MBR side. The paper adopts
	// 0.3 after experimentation; our ablation bench sweeps it.
	QueryExtent float64
	// MaxPoints caps the points per MBR (the paper's "max: the predefined
	// value of maximum points per MBR").
	MaxPoints int
}

// DefaultPartitionConfig returns the paper's settings: Q_k + ε = 0.3 with a
// 64-point cap.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{QueryExtent: 0.3, MaxPoints: 64}
}

func (c PartitionConfig) validate() error {
	if c.QueryExtent < 0 {
		return fmt.Errorf("core: negative QueryExtent %g", c.QueryExtent)
	}
	if c.MaxPoints < 1 {
		return fmt.Errorf("core: MaxPoints %d < 1", c.MaxPoints)
	}
	return nil
}

// mcost is the marginal cost of an MBR with the given bounding rect and
// point count: the estimated disk accesses Π_k (L_k + QueryExtent) divided
// by the number of points amortizing them.
func (c PartitionConfig) mcost(r geom.Rect, count int) float64 {
	da := 1.0
	for k := 0; k < r.Dim(); k++ {
		da *= r.Side(k) + c.QueryExtent
	}
	return da / float64(count)
}

// mcostGrown is mcost of the rectangle r would become after absorbing p,
// computed without materializing the grown rectangle. The per-axis side is
// max(H_k, p_k) − min(L_k, p_k) — exactly the side an ExtendPoint+Side
// round trip produces, in the same axis order, so the greedy rule below
// makes bit-identical decisions to the clone-based original.
func (c PartitionConfig) mcostGrown(r geom.Rect, p geom.Point, count int) float64 {
	da := 1.0
	for k := range p {
		lo, hi := r.L[k], r.H[k]
		if p[k] < lo {
			lo = p[k]
		}
		if p[k] > hi {
			hi = p[k]
		}
		da *= (hi - lo) + c.QueryExtent
	}
	return da / float64(count)
}

// Partition segments a sequence into MBRs with the paper's greedy
// marginal-cost rule. The loop is the query segmentation's
// (Prepared.segmentQuery), run in a pooled Prepared; the result is
// copied out at its exact size, and the returned rects alias two bound
// arrays the whole partitioning shares.
func Partition(s *Sequence, cfg PartitionConfig) ([]MBRInfo, error) {
	mbrs, _, _, err := partition(s, cfg)
	return mbrs, err
}

// partition is Partition, also returning the two bound arrays the rects
// alias, MBR j's at lo/hi[j*d:(j+1)*d]: the Lo and Hi columns of a
// Segmented.
func partition(s *Sequence, cfg PartitionConfig) (mbrs []MBRInfo, lo, hi []float64, err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	p := preparedPool.Get().(*Prepared)
	defer preparedPool.Put(p)
	p.segmentQuery(s, cfg)
	d := s.Dim()
	mbrs = slices.Clone(p.qmbrs)
	lo, hi = slices.Clone(p.qlo[:len(mbrs)*d]), slices.Clone(p.qhi[:len(mbrs)*d])
	aliasBounds(mbrs, lo, hi, d)
	return mbrs, lo, hi, nil
}

// aliasBounds points each MBR's rect at its bounds in the columnar arrays:
// MBR j's at lo/hi[j*d:(j+1)*d], capped so that an append to one rect's
// side reallocates instead of writing into the next MBR's.
func aliasBounds(mbrs []MBRInfo, lo, hi []float64, d int) {
	for j := range mbrs {
		mbrs[j].Rect = geom.Rect{L: lo[j*d : (j+1)*d : (j+1)*d], H: hi[j*d : (j+1)*d : (j+1)*d]}
	}
}

// Segmented couples a sequence with its partitioning; it is the stored
// form inside a Database and the unit Dnorm operates on. Its data is
// columnar (structure-of-arrays) — Flat/Lo/Hi — which the search kernels
// scan as one contiguous float64 run instead of chasing a pointer per
// point or MBR.
type Segmented struct {
	Seq  *Sequence // the partitioned sequence
	MBRs []MBRInfo // its MCOST partitioning, in point order

	// Flat holds the coordinates: point i occupies Flat[i*d : (i+1)*d].
	// A stored Seq (Segment) is a view of this same array.
	Flat []float64
	// Lo and Hi hold every MBR's bounds contiguously: MBR j occupies
	// Lo[j*d:(j+1)*d] and Hi[j*d:(j+1)*d]. The MBRInfo.Rect slices alias
	// directly into these arrays, so the two views are one storage and
	// cannot diverge. MinDistSqBatch scans them sequentially in the Dnorm
	// inner loop.
	Lo, Hi []float64

	// Starts is the point-range column of the partitioning: MBR j covers
	// points [Starts[j], Starts[j+1]), so len(Starts) = len(MBRs)+1,
	// Starts[0] = 0 and the last entry is the sequence length. It is the
	// count prefix sum every Dnorm window reads, kept beside Lo/Hi so the
	// phase-3 kernel never loads an MBRInfo.
	Starts []int32
}

// Segment partitions s under cfg into the form a database holds: its own
// flat copy of s's coordinates, with Seq a stored sequence over that copy
// carrying s's ID and Label. Nothing of s is retained and s is not
// modified, so an input-form corpus can be dropped once it is segmented.
func Segment(s *Sequence, cfg PartitionConfig) (*Segmented, error) {
	g, err := NewSegmented(s, cfg)
	if err != nil {
		return nil, err
	}
	g.Seq = storedOver(s, s.Dim(), g.Flat)
	return g, nil
}

// NewSegmented is Segment with Seq the sequence given rather than a stored
// copy: the form for a caller that keeps reading s through the result.
// A database never holds it; Add and AddSegmented store their own.
func NewSegmented(s *Sequence, cfg PartitionConfig) (*Segmented, error) {
	mbrs, lo, hi, err := partition(s, cfg)
	if err != nil {
		return nil, err
	}
	flat := s.appendFlat(make([]float64, 0, s.Len()*s.Dim()))
	return &Segmented{Seq: s, MBRs: mbrs, Flat: flat, Lo: lo, Hi: hi, Starts: startsOf(mbrs)}, nil
}

// stored returns g as a database holds it: g itself when its sequence is
// already stored over g.Flat, else a shallow copy whose Seq is, so the
// caller's sequence is neither kept nor stamped with an id.
func (g *Segmented) stored() *Segmented {
	if s := g.Seq; s.dim > 0 && len(g.Flat) > 0 && len(s.flat) == len(g.Flat) && &s.flat[0] == &g.Flat[0] {
		return g
	}
	gc := *g
	gc.Seq = storedOver(g.Seq, g.Seq.Dim(), g.Flat)
	return &gc
}

// numPoints returns the sequence's length, the last entry of Starts: the
// read a kernel that already has Starts in hand makes instead of loading
// Seq.
func (g *Segmented) numPoints() int { return int(g.Starts[len(g.Starts)-1]) }

// startsOf builds the Starts column of a partitioning that tiles its
// sequence contiguously from point 0.
func startsOf(mbrs []MBRInfo) []int32 {
	starts := make([]int32, len(mbrs)+1)
	for j := range mbrs {
		starts[j+1] = int32(mbrs[j].End)
	}
	return starts
}

// InitColumnar makes g the Segmented of s over its columnar parts, and s
// the stored sequence over flat, dim coordinates a point — the zero-copy
// constructor the v2 store loader uses, which decodes a whole file's
// headers into slabs and hands each sequence its element and sub-slices
// to fill. flat holds the points (point i at flat[i*dim:(i+1)*dim]), lo/hi
// the MBR bounds (MBR j at [j*dim:(j+1)*dim]), and ranges the half-open
// point ranges of the MBRs, which must tile the sequence contiguously;
// starts, of len(ranges)+1 entries, receives the Starts column. The slices
// are aliased, not copied, and each MBRInfo.Rect is re-aliased into lo/hi;
// slices cut from a shared slab should have cap == len, so that an append
// reallocates instead of writing into the neighbour. No partitioning runs:
// the caller asserts ranges came from Partition under the database's
// config (the store format records and checksums them).
func (g *Segmented) InitColumnar(s *Sequence, dim int, ranges []MBRInfo, starts []int32, flat, lo, hi []float64) error {
	d := dim
	r := len(ranges)
	if d < 1 || len(flat)%d != 0 || len(lo) != r*d || len(hi) != r*d || len(starts) != r+1 {
		return fmt.Errorf("core: columnar sizes flat=%d lo=%d hi=%d starts=%d for r=%d d=%d",
			len(flat), len(lo), len(hi), len(starts), r, d)
	}
	n := len(flat) / d
	want := 0
	starts[0] = 0
	for j := range ranges {
		if ranges[j].Start != want || ranges[j].End <= ranges[j].Start || ranges[j].End > n {
			return fmt.Errorf("core: MBR %d range [%d,%d) does not tile %d points",
				j, ranges[j].Start, ranges[j].End, n)
		}
		want = ranges[j].End
		starts[j+1] = int32(want)
		ranges[j].Rect = geom.Rect{
			L: lo[j*d : (j+1)*d : (j+1)*d],
			H: hi[j*d : (j+1)*d : (j+1)*d],
		}
	}
	if want != n {
		return fmt.Errorf("core: MBR ranges cover %d of %d points", want, n)
	}
	s.Points, s.flat, s.dim = nil, flat, d
	*g = Segmented{Seq: s, MBRs: ranges, Flat: flat, Lo: lo, Hi: hi, Starts: starts}
	return nil
}

// Bounds returns the union of the partition MBRs — the sequence's
// overall minimum bounding rectangle, computed in O(#MBRs) from the
// partitioning without touching point data. It is the write region the
// database reports to the query cache (see internal/cache): every point
// of the sequence lies inside it, so any result a change to this
// sequence could affect is within MinDist reach of it.
func (g *Segmented) Bounds() geom.Rect {
	var r geom.Rect
	for j := range g.MBRs {
		r.ExtendRect(g.MBRs[j].Rect)
	}
	return r
}

// CheckPartition verifies partition invariants (for tests and debugging):
// ranges tile [0, Len) contiguously, each MBR bounds exactly its points,
// and no MBR exceeds the cap.
func (g *Segmented) CheckPartition(cfg PartitionConfig) error {
	want := 0
	for j, m := range g.MBRs {
		if m.Start != want {
			return fmt.Errorf("core: MBR %d starts at %d, want %d", j, m.Start, want)
		}
		if m.End <= m.Start {
			return fmt.Errorf("core: MBR %d empty range [%d,%d)", j, m.Start, m.End)
		}
		if m.Count() > cfg.MaxPoints {
			return fmt.Errorf("core: MBR %d holds %d points, cap %d", j, m.Count(), cfg.MaxPoints)
		}
		exact := geom.BoundingRect(g.Seq.Slice(m.Start, m.End))
		if !m.Rect.Equal(exact) {
			return fmt.Errorf("core: MBR %d rect %v != bound %v", j, m.Rect, exact)
		}
		want = m.End
	}
	if want != g.Seq.Len() {
		return fmt.Errorf("core: partition covers %d of %d points", want, g.Seq.Len())
	}
	return nil
}
