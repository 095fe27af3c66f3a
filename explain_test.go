package mdseq_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	mdseq "repro"
	"repro/internal/shard"
	"repro/internal/txn"
)

// explainTieSeeds are tiePair seeds whose pair Explain labelled "pruned-dmbr"
// at ε = the scan's own distance while Search returned it: Explain rebuilt
// both bounds in the seed forms at ε itself, where Search probes at dReach
// and sweeps with the cancellation margin. The seeds the test draws besides
// them (1000–1149) held 11 more such pairs.
var explainTieSeeds = []int64{7, 16, 26, 38, 50, 52, 65, 88}

// TestExplainAgreesWithSearchAtTies holds Explain's verdict to Search's
// answer at the answer's boundary, on a plain database, 4 shards and a
// transactional database with unfolded adds: every stored sequence is 2–31
// random points, every query a copy of one of them shifted by a common
// vector or perturbed point by point, by 10⁻³ to 10² (tiePair), and each
// query is asked at ε = the scan's distance to its own source — a tie. For
// every sequence in the database, "matched" must be exactly membership in
// Search's answer.
func TestExplainAgreesWithSearchAtTies(t *testing.T) {
	ctx := context.Background()
	seeds := append([]int64(nil), explainTieSeeds...)
	for seed := int64(1000); seed < 1150; seed++ {
		seeds = append(seeds, seed)
	}
	var seqs, queries []*mdseq.Sequence
	for _, seed := range seeds {
		s, q := tiePair(seed)
		s.Label = fmt.Sprintf("seed%d", seed)
		seqs, queries = append(seqs, s), append(queries, q)
	}
	for _, tp := range []struct {
		name string
		open func() (shard.DB, error)
	}{
		{"core", func() (shard.DB, error) { return mdseq.Open(mdseq.Options{Dim: 3}) }},
		{"shard4", func() (shard.DB, error) { return mdseq.OpenSharded(mdseq.Options{Dim: 3}, 4) }},
		{"txn", func() (shard.DB, error) {
			return txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true})
		}},
	} {
		db, err := tp.open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.AddAll(seqs); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			all, err := db.Do(ctx, mdseq.Query{Seq: q, Kind: mdseq.Scan, Eps: math.MaxFloat64})
			if err != nil {
				t.Fatal(err)
			}
			eps := math.NaN()
			for _, m := range all.Matches {
				if m.Seq.Label == seqs[i].Label {
					eps = m.Dist
				}
			}
			res, err := db.Do(ctx, mdseq.Query{Seq: q, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			found := map[uint32]bool{}
			for _, m := range res.Matches {
				found[m.SeqID] = true
			}
			ex, err := db.Explain(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(ex.Candidates) != len(seqs) {
				t.Fatalf("%s seed %d: Explain covered %d sequences of %d", tp.name, seeds[i], len(ex.Candidates), len(seqs))
			}
			for _, c := range ex.Candidates {
				if (c.Phase == "matched") != found[c.SeqID] {
					t.Errorf("%s seed %d (n = %d, eps = %v): Explain says %s is %s, Search returned it: %v",
						tp.name, seeds[i], q.Len(), eps, c.Label, c.Phase, found[c.SeqID])
				}
			}
		}
	}
}

// tiePair is 2–31 random points of [0, 1)³ on a grid of 2⁻¹⁰ and a query
// copy of them moved by 2⁻¹⁰ to 2⁷ (10⁻³ to 10²): every point by one common
// vector, or each point by its own. Points that far apart are MBRs of their
// own, so a Dmbr phase 2 compares is a point distance; on the grid a common
// move is exact, every point distance the same float, and D — their mean —
// can round below each of them.
func tiePair(seed int64) (s, q *mdseq.Sequence) {
	rng := rand.New(rand.NewSource(seed))
	grid := func() float64 { return float64(rng.Intn(1024)) / 1024 }
	s = &mdseq.Sequence{Points: make([]mdseq.Point, 2+rng.Intn(30))}
	for i := range s.Points {
		s.Points[i] = mdseq.Point{grid(), grid(), grid()}
	}
	size := math.Ldexp(1, rng.Intn(18)-10)
	move := func() mdseq.Point {
		return mdseq.Point{(grid() - 0.5) * size, (grid() - 0.5) * size, (grid() - 0.5) * size}
	}
	pts := clonePoints(s.Points)
	common := rng.Intn(2) == 0
	v := move()
	for _, p := range pts {
		if !common {
			v = move()
		}
		for k := range p {
			p[k] += v[k]
		}
	}
	return s, &mdseq.Sequence{Points: pts}
}
