package mdseq_test

import (
	"math/rand"
	"testing"

	mdseq "repro"
)

// walk builds a smooth random-walk sequence through the public API.
func walk(rng *rand.Rand, n int) *mdseq.Sequence {
	pts := make([]mdseq.Point, n)
	cur := mdseq.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	for i := range pts {
		next := make(mdseq.Point, 3)
		for k := range next {
			v := cur[k] + (rng.Float64()-0.5)*0.08
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			next[k] = v
		}
		pts[i] = next
		cur = next
	}
	s, _ := mdseq.NewSequence("walk", pts)
	return s
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db, err := mdseq.Open(mdseq.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(1))
	var target *mdseq.Sequence
	for i := 0; i < 25; i++ {
		s := walk(rng, 80+rng.Intn(120))
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			target = s
		}
	}

	// Query with a stored subsequence: must match its source exactly.
	q, err := mdseq.NewSequence("q", target.Points[20:60])
	if err != nil {
		t.Fatal(err)
	}
	matches, stats, err := db.Search(q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSequences != 25 || stats.QueryMBRs < 1 {
		t.Errorf("stats = %+v", stats)
	}
	found := false
	for _, m := range matches {
		if m.SeqID == target.ID {
			found = true
			if !m.Interval.Contains(30) {
				t.Errorf("solution interval %v misses the match core", m.Interval.Ranges())
			}
		}
	}
	if !found {
		t.Fatal("source sequence not found")
	}

	// The sequential baseline agrees on membership.
	exact, err := db.SequentialSearch(q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	inMatches := make(map[uint32]bool)
	for _, m := range matches {
		inMatches[m.SeqID] = true
	}
	for _, r := range exact {
		if !inMatches[r.SeqID] {
			t.Errorf("exact result %d missing from index search", r.SeqID)
		}
	}
}

func TestPublicMetricHelpers(t *testing.T) {
	a, _ := mdseq.NewSequence("a", []mdseq.Point{{0, 0, 0}, {0.1, 0, 0}})
	b, _ := mdseq.NewSequence("b", []mdseq.Point{{0, 0, 0}, {0.1, 0, 0}, {0.9, 0.9, 0.9}})
	if d := mdseq.D(a, b); d != 0 {
		t.Errorf("D = %g, want 0 (prefix alignment)", d)
	}
	off, dist := mdseq.BestAlignment(a.Points, b.Points)
	if off != 0 || dist != 0 {
		t.Errorf("BestAlignment = (%d, %g)", off, dist)
	}
	if got := mdseq.Dmean(a.Points, a.Points); got != 0 {
		t.Errorf("Dmean = %g", got)
	}
	if s := mdseq.DistToSimilarity(0, 3); s != 1 {
		t.Errorf("similarity of distance 0 = %g", s)
	}

	cfg := mdseq.DefaultPartitionConfig()
	mbrs, err := mdseq.Partition(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mbrs) < 2 {
		t.Errorf("expected the far point to split the partition, got %d MBRs", len(mbrs))
	}
	if mdseq.Dmbr(mbrs[0].Rect, mbrs[len(mbrs)-1].Rect) <= 0 {
		t.Error("Dmbr of separated MBRs should be positive")
	}
}
