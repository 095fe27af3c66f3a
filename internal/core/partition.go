package core

import (
	"fmt"

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
// marginal-cost rule: a point joins the current MBR unless doing so would
// increase the per-point cost or overflow the cap, in which case it starts
// a new MBR. Consecutive MBRs cover contiguous, non-overlapping index
// ranges whose union is the whole sequence.
func Partition(s *Sequence, cfg PartitionConfig) ([]MBRInfo, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var out []MBRInfo
	// The candidate cost is evaluated with mcostGrown instead of cloning
	// and extending a trial rectangle (two allocations per point in the
	// original); the rectangle is grown in place only once the point is
	// accepted. RectFromPoint clones, so the growth never aliases s.Points.
	cur := MBRInfo{Rect: geom.RectFromPoint(s.Points[0]), Start: 0, End: 1}
	curCost := cfg.mcost(cur.Rect, 1)
	for i := 1; i < len(s.Points); i++ {
		p := s.Points[i]
		grownCost := cfg.mcostGrown(cur.Rect, p, cur.Count()+1)
		if grownCost > curCost || cur.Count() >= cfg.MaxPoints {
			out = append(out, cur)
			cur = MBRInfo{Rect: geom.RectFromPoint(p), Start: i, End: i + 1}
			curCost = cfg.mcost(cur.Rect, 1)
			continue
		}
		cur.Rect.ExtendPoint(p)
		cur.End = i + 1
		curCost = grownCost
	}
	out = append(out, cur)
	return out, nil
}

// Segmented couples a sequence with its partitioning; it is the stored
// form inside a Database and the unit Dnorm operates on. Alongside the
// slice-of-slices view it carries a columnar (structure-of-arrays) copy of
// the same data — Flat/Lo/Hi — which the search kernels scan as one
// contiguous float64 run instead of chasing a pointer per point or MBR.
type Segmented struct {
	Seq  *Sequence // the partitioned sequence
	MBRs []MBRInfo // its MCOST partitioning, in point order

	// Flat is the columnar copy of Seq.Points: point i occupies
	// Flat[i*d : (i+1)*d]. It backs the flat alignment kernel used by kNN
	// refinement.
	Flat []float64
	// Lo and Hi hold every MBR's bounds contiguously: MBR j occupies
	// Lo[j*d:(j+1)*d] and Hi[j*d:(j+1)*d]. After syncSoA the MBRInfo.Rect
	// slices alias directly into these arrays, so the two views are one
	// storage and cannot diverge. MinDistSqBatch scans them sequentially
	// in the Dnorm inner loop.
	Lo, Hi []float64

	// QLo and QHi are the quantized sidecar of Lo/Hi: float32 copies with
	// lows rounded toward −∞ and highs toward +∞, so every quantized MBR
	// encloses its exact original and distances computed from them are
	// conservative lower bounds (see geom.QuantizeDown/QuantizeUp). The
	// v2 store persists and reloads them; search no longer reads them
	// (see Options.QuantizedMBR).
	QLo, QHi []float32

	// Starts is the point-range column of the partitioning: MBR j covers
	// points [Starts[j], Starts[j+1]), so len(Starts) = len(MBRs)+1,
	// Starts[0] = 0 and the last entry is the sequence length. It is the
	// count prefix sum every Dnorm window reads, kept beside Lo/Hi so the
	// phase-3 kernel never loads an MBRInfo.
	Starts []int32
}

// NewSegmented partitions s under cfg and builds the columnar view.
func NewSegmented(s *Sequence, cfg PartitionConfig) (*Segmented, error) {
	mbrs, err := Partition(s, cfg)
	if err != nil {
		return nil, err
	}
	g := &Segmented{Seq: s, MBRs: mbrs}
	g.syncSoA()
	return g, nil
}

// syncSoA (re)builds the columnar arrays from Seq.Points and MBRs and
// re-aliases each MBRInfo.Rect into Lo/Hi. Call after any mutation of the
// points or the partitioning (NewSegmented, AppendPoints). Rects handed
// out before the call keep the previous backing arrays, which stay valid
// and immutable — a rebuild replaces the arrays rather than scribbling
// over them.
func (g *Segmented) syncSoA() {
	d := g.Seq.Dim()
	n := g.Seq.Len()
	r := len(g.MBRs)
	flat := make([]float64, n*d)
	for i, p := range g.Seq.Points {
		copy(flat[i*d:(i+1)*d], p)
	}
	lo := make([]float64, r*d)
	hi := make([]float64, r*d)
	for j := range g.MBRs {
		copy(lo[j*d:(j+1)*d], g.MBRs[j].Rect.L)
		copy(hi[j*d:(j+1)*d], g.MBRs[j].Rect.H)
		g.MBRs[j].Rect = geom.Rect{
			L: lo[j*d : (j+1)*d : (j+1)*d],
			H: hi[j*d : (j+1)*d : (j+1)*d],
		}
	}
	g.Flat, g.Lo, g.Hi, g.Starts = flat, lo, hi, startsOf(g.MBRs)
	g.syncQuant()
}

// startsOf builds the Starts column of a partitioning that tiles its
// sequence contiguously from point 0.
func startsOf(mbrs []MBRInfo) []int32 {
	starts := make([]int32, len(mbrs)+1)
	for j := range mbrs {
		starts[j+1] = int32(mbrs[j].End)
	}
	return starts
}

// syncQuant (re)builds the quantized float32 sidecar from Lo/Hi with
// outward rounding. Called by syncSoA and by the zero-copy store loader,
// which aliases Lo/Hi into a mapped file and derives the sidecar rather
// than storing it.
func (g *Segmented) syncQuant() {
	n := len(g.Lo)
	if cap(g.QLo) < n {
		g.QLo = make([]float32, n)
		g.QHi = make([]float32, n)
	}
	g.QLo, g.QHi = g.QLo[:n], g.QHi[:n]
	geom.QuantizeDown(g.QLo, g.Lo)
	geom.QuantizeUp(g.QHi, g.Hi)
}

// NewSegmentedColumnar assembles a Segmented directly from its columnar
// parts — the zero-copy constructor the v2 store loader uses. flat holds
// the points (point i at flat[i*d:(i+1)*d]), lo/hi the MBR bounds (MBR j
// at [j*d:(j+1)*d]), and ranges the half-open point ranges of the MBRs,
// which must tile [0, len(s.Points)) contiguously. The slices are aliased,
// not copied (s.Points should itself alias flat), each MBRInfo.Rect is
// re-aliased into lo/hi, and the quantized sidecar is derived. No
// partitioning runs: the caller asserts ranges came from Partition under
// the database's config (the store format records and checksums them).
func NewSegmentedColumnar(s *Sequence, ranges []MBRInfo, flat, lo, hi []float64) (*Segmented, error) {
	g, err := newColumnar(s, ranges, flat, lo, hi)
	if err != nil {
		return nil, err
	}
	g.syncQuant()
	return g, nil
}

// NewSegmentedColumnarQ is NewSegmentedColumnar with a prebuilt
// quantized sidecar: qlo/qhi are aliased instead of being re-derived
// from lo/hi. The caller asserts they were produced by
// geom.QuantizeDown/QuantizeUp on exactly these bounds — the v2 store
// persists and checksums the sidecar next to the bounds themselves, so
// reloading trusts it on the same footing as lo/hi.
func NewSegmentedColumnarQ(s *Sequence, ranges []MBRInfo, flat, lo, hi []float64, qlo, qhi []float32) (*Segmented, error) {
	if len(qlo) != len(lo) || len(qhi) != len(hi) {
		return nil, fmt.Errorf("core: quantized sidecar sizes qlo=%d qhi=%d, want %d", len(qlo), len(qhi), len(lo))
	}
	g, err := newColumnar(s, ranges, flat, lo, hi)
	if err != nil {
		return nil, err
	}
	g.QLo, g.QHi = qlo, qhi
	return g, nil
}

// newColumnar validates and assembles the shared columnar parts; the
// exported constructors differ only in where the quantized sidecar
// comes from.
func newColumnar(s *Sequence, ranges []MBRInfo, flat, lo, hi []float64) (*Segmented, error) {
	d := s.Dim()
	n := s.Len()
	r := len(ranges)
	if len(flat) != n*d || len(lo) != r*d || len(hi) != r*d {
		return nil, fmt.Errorf("core: columnar sizes flat=%d lo=%d hi=%d for n=%d r=%d d=%d",
			len(flat), len(lo), len(hi), n, r, d)
	}
	want := 0
	for j := range ranges {
		if ranges[j].Start != want || ranges[j].End <= ranges[j].Start || ranges[j].End > n {
			return nil, fmt.Errorf("core: MBR %d range [%d,%d) does not tile %d points",
				j, ranges[j].Start, ranges[j].End, n)
		}
		want = ranges[j].End
		ranges[j].Rect = geom.Rect{
			L: lo[j*d : (j+1)*d : (j+1)*d],
			H: hi[j*d : (j+1)*d : (j+1)*d],
		}
	}
	if want != n {
		return nil, fmt.Errorf("core: MBR ranges cover %d of %d points", want, n)
	}
	return &Segmented{Seq: s, MBRs: ranges, Flat: flat, Lo: lo, Hi: hi, Starts: startsOf(ranges)}, nil
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

// PointsIn returns the points covered by MBR j.
func (g *Segmented) PointsIn(j int) []geom.Point {
	m := g.MBRs[j]
	return g.Seq.Points[m.Start:m.End]
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
		exact := geom.BoundingRect(g.Seq.Points[m.Start:m.End])
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
