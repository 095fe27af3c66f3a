package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestDefaultPartitionConfig(t *testing.T) {
	cfg := DefaultPartitionConfig()
	if cfg.QueryExtent != 0.3 {
		t.Errorf("QueryExtent = %g, want the paper's 0.3", cfg.QueryExtent)
	}
	if cfg.MaxPoints < 1 {
		t.Errorf("MaxPoints = %d", cfg.MaxPoints)
	}
}

func TestPartitionConfigValidation(t *testing.T) {
	if _, err := Partition(seqFromCoords(1, 2), PartitionConfig{QueryExtent: -1, MaxPoints: 4}); err == nil {
		t.Error("negative QueryExtent accepted")
	}
	if _, err := Partition(seqFromCoords(1, 2), PartitionConfig{QueryExtent: 0.3, MaxPoints: 0}); err == nil {
		t.Error("zero MaxPoints accepted")
	}
	if _, err := Partition(&Sequence{}, DefaultPartitionConfig()); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestPartitionSinglePoint(t *testing.T) {
	mbrs, err := Partition(seqFromCoords(0.5), DefaultPartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(mbrs) != 1 || mbrs[0].Start != 0 || mbrs[0].End != 1 {
		t.Errorf("single-point partition = %+v", mbrs)
	}
}

func TestPartitionInvariantsOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := DefaultPartitionConfig()
	for trial := 0; trial < 60; trial++ {
		var s *Sequence
		if trial%2 == 0 {
			s = randSeq(rng, 1+rng.Intn(300), 3)
		} else {
			s = randWalkSeq(rng, 1+rng.Intn(300), 3)
		}
		g, err := NewSegmented(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckPartition(cfg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPartitionRespectsMaxPoints(t *testing.T) {
	// A perfectly clustered sequence never increases MCOST, so only the
	// cap forces splits.
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{0.5, 0.5, 0.5}
	}
	s := &Sequence{Points: pts}
	cfg := PartitionConfig{QueryExtent: 0.3, MaxPoints: 16}
	mbrs, err := Partition(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range mbrs {
		if m.Count() > 16 {
			t.Errorf("MBR %d holds %d points, cap 16", j, m.Count())
		}
	}
	if len(mbrs) != 100/16+1 { // 6 full + 1 partial
		t.Errorf("got %d MBRs, want %d", len(mbrs), 100/16+1)
	}
}

func TestPartitionSplitsOnJumps(t *testing.T) {
	// Two tight clusters far apart must not share an MBR: extending across
	// the jump multiplies every side term and raises the per-point cost.
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Point{0.1 + 0.001*float64(i), 0.1, 0.1})
	}
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Point{0.9 + 0.001*float64(i), 0.9, 0.9})
	}
	mbrs, err := Partition(&Sequence{Points: pts}, DefaultPartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mbrs {
		if m.Start < 20 && m.End > 20 {
			t.Fatalf("MBR [%d,%d) spans the cluster jump", m.Start, m.End)
		}
	}
	if len(mbrs) < 2 {
		t.Errorf("expected at least 2 MBRs, got %d", len(mbrs))
	}
}

func TestClusteredDataYieldsFewerMBRs(t *testing.T) {
	// Shot-structured (clustered) data should need fewer MBRs than white
	// noise of the same length — this is the structural fact behind the
	// paper's better video results (Section 4.2.2).
	rng := rand.New(rand.NewSource(11))
	n := 256
	noise := randSeq(rng, n, 3)
	clustered := make([]geom.Point, n)
	for i := range clustered {
		shot := i / 32
		base := 0.1 + 0.1*float64(shot%8)
		clustered[i] = geom.Point{
			base + rng.Float64()*0.02,
			base + rng.Float64()*0.02,
			base + rng.Float64()*0.02,
		}
	}
	cfg := DefaultPartitionConfig()
	a, _ := Partition(noise, cfg)
	b, _ := Partition(&Sequence{Points: clustered}, cfg)
	if len(b) >= len(a) {
		t.Errorf("clustered data produced %d MBRs, noise %d; expected fewer", len(b), len(a))
	}
}

func TestMCOST(t *testing.T) {
	cfg := PartitionConfig{QueryExtent: 0.3, MaxPoints: 64}
	r := geom.MustRect(geom.Point{0, 0}, geom.Point{0.2, 0.1})
	// DA = (0.2+0.3)(0.1+0.3) = 0.2; MCOST for 4 points = 0.05
	if got := cfg.mcost(r, 4); !almostEqual(got, 0.05) {
		t.Errorf("mcost = %g, want 0.05", got)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randWalkSeq(rng, 200, 3)
	cfg := DefaultPartitionConfig()
	a, _ := Partition(s, cfg)
	b, _ := Partition(s, cfg)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic partition: %d vs %d MBRs", len(a), len(b))
	}
	for i := range a {
		if !a[i].Rect.Equal(b[i].Rect) || a[i].Start != b[i].Start || a[i].End != b[i].End {
			t.Fatalf("MBR %d differs between runs", i)
		}
	}
}

func TestLargerQueryExtentMergesMore(t *testing.T) {
	// A larger Q_k+ε constant amortizes growth across more points, so the
	// partitioning should produce no more MBRs than a smaller constant.
	rng := rand.New(rand.NewSource(13))
	s := randWalkSeq(rng, 300, 3)
	small, _ := Partition(s, PartitionConfig{QueryExtent: 0.05, MaxPoints: 1 << 30})
	large, _ := Partition(s, PartitionConfig{QueryExtent: 0.9, MaxPoints: 1 << 30})
	if len(large) > len(small) {
		t.Errorf("QueryExtent 0.9 gave %d MBRs, 0.05 gave %d; want monotone", len(large), len(small))
	}
}

// TestPartitionAllNamesLowestFailure: PartitionAll validates each sequence
// once, in the worker that partitions it, and still reports the lowest
// failing sequence by index, wrapping ErrNonFinite for a NaN or ±Inf,
// geom.ErrDimensionMismatch for a sequence of another dimensionality and
// ErrEmptySequence for one with no points, whichever worker meets its
// failure first.
func TestPartitionAllNamesLowestFailure(t *testing.T) {
	walk := func(n, dim int) *Sequence {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = make(geom.Point, dim)
			for k := range pts[i] {
				pts[i][k] = float64(i*dim+k) / float64(n*dim)
			}
		}
		return &Sequence{Points: pts}
	}
	nonFinite := walk(30, 3)
	nonFinite.Points[17][2] = math.Inf(-1)
	for _, tc := range []struct {
		name string
		bad  map[int]*Sequence
		at   int
		want error
	}{
		{"non-finite", map[int]*Sequence{40: nonFinite}, 40, ErrNonFinite},
		{"other dim", map[int]*Sequence{9: walk(30, 2)}, 9, geom.ErrDimensionMismatch},
		{"empty", map[int]*Sequence{0: {}}, 0, ErrEmptySequence},
		{"non-finite below other dim", map[int]*Sequence{3: nonFinite, 50: walk(12, 4)}, 3, ErrNonFinite},
		{"other dim below non-finite", map[int]*Sequence{2: walk(12, 4), 63: nonFinite}, 2, geom.ErrDimensionMismatch},
	} {
		for range 5 {
			seqs := make([]*Sequence, 64)
			for i := range seqs {
				if s, ok := tc.bad[i]; ok {
					seqs[i] = s
				} else {
					seqs[i] = walk(20+i, 3)
				}
			}
			segs, err := PartitionAll(seqs, 3, DefaultPartitionConfig())
			if segs != nil || !errors.Is(err, tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("sequence %d:", tc.at)) {
				t.Fatalf("%s: PartitionAll error %v, want sequence %d and %v", tc.name, err, tc.at, tc.want)
			}
		}
	}
	if _, err := PartitionAll([]*Sequence{walk(5, 3)}, 3, DefaultPartitionConfig()); err != nil {
		t.Fatalf("a valid corpus: %v", err)
	}
}
