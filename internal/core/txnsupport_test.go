package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

func randSeqN(rng *rand.Rand, dim, n int) *Sequence {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float64()
		}
		pts[i] = p
	}
	s, err := NewSequence("", pts)
	if err != nil {
		panic(err)
	}
	return s
}

// TestAddSegmentedMatchesAdd: a database built via AddSegmented answers
// queries identically to one built via Add over the same corpus.
func TestAddSegmentedMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := Options{Dim: 3}
	a, _ := NewDatabase(opts)
	b, _ := NewDatabase(opts)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 20; i++ {
		s := randSeqN(rng, 3, 30+rng.Intn(100))
		if _, err := a.Add(s.Clone()); err != nil {
			t.Fatal(err)
		}
		g, err := NewSegmented(s, a.PartitionConfig())
		if err != nil {
			t.Fatal(err)
		}
		id, err := b.AddSegmented(g)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("AddSegmented id = %d, want %d", id, i)
		}
	}
	q := randSeqN(rng, 3, 40)
	ma, _, err := a.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := b.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma) != len(mb) {
		t.Fatalf("Add path found %d matches, AddSegmented path %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i].SeqID != mb[i].SeqID || ma[i].MinDnorm != mb[i].MinDnorm {
			t.Fatalf("match %d differs: %+v vs %+v", i, ma[i], mb[i])
		}
	}
}

// TestAppendPointsCOW: AppendPoints must not mutate the previously stored
// Segmented — readers holding the old version keep a consistent view.
func TestAppendPointsCOW(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, _ := NewDatabase(Options{Dim: 2})
	defer db.Close()
	s := randSeqN(rng, 2, 80)
	id, err := db.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	old := db.Segmented(id)
	oldLen := old.Seq.Len()
	oldMBRs := len(old.MBRs)
	oldFlat := len(old.Flat)
	if err := db.AppendPoints(id, randSeqN(rng, 2, 50).Points); err != nil {
		t.Fatal(err)
	}
	if old.Seq.Len() != oldLen || len(old.MBRs) != oldMBRs || len(old.Flat) != oldFlat {
		t.Fatalf("AppendPoints mutated the old Segmented in place (len %d→%d, MBRs %d→%d)",
			oldLen, old.Seq.Len(), oldMBRs, len(old.MBRs))
	}
	ng := db.Segmented(id)
	if ng == old {
		t.Fatal("AppendPoints did not swap in a new Segmented")
	}
	if ng.Seq.Len() != oldLen+50 {
		t.Fatalf("new version has %d points, want %d", ng.Seq.Len(), oldLen+50)
	}
	if err := ng.CheckPartition(db.PartitionConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestAppendToSegmentedEquivalence: the COW append must produce exactly
// the partitioning a from-scratch partition of the extended sequence
// yields, for many random split points.
func TestAppendToSegmentedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultPartitionConfig()
	for trial := 0; trial < 30; trial++ {
		whole := randSeqN(rng, 3, 60+rng.Intn(140))
		cut := 1 + rng.Intn(whole.Len()-1)
		head, _ := NewSequence("", whole.Points[:cut])
		g, err := NewSegmented(head, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ng, err := AppendToSegmented(g, whole.Points[cut:], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSegmented(whole, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ng.MBRs) != len(ref.MBRs) {
			t.Fatalf("trial %d: %d MBRs after append, want %d", trial, len(ng.MBRs), len(ref.MBRs))
		}
		for j := range ng.MBRs {
			if ng.MBRs[j].Start != ref.MBRs[j].Start || ng.MBRs[j].End != ref.MBRs[j].End ||
				!ng.MBRs[j].Rect.Equal(ref.MBRs[j].Rect) {
				t.Fatalf("trial %d: MBR %d differs", trial, j)
			}
		}
	}
}

// TestUnindexedMatchesDo: Unindexed over every live sequence of a
// database, under their own ids, answers every kind under every metric with
// Do's answer, bit for bit — range matches with their bounds and intervals,
// the phase-2 candidates and the Dnorm values computed (the linear phase 2
// marks exactly the pairs the index probe hits), exact distances, and kNN
// neighbors with their offsets. Each range is asked again at ε = the
// query's distance to its nearest other sequence, a tie: twenty points at
// (2, 2, 2) and a query of twenty at (2.1, 2.1, 2.1) are one, whose D
// rounds below its every point distance.
func TestUnindexedMatchesDo(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	db, _ := NewDatabase(Options{Dim: 3})
	defer db.Close()
	for i := 0; i < 40; i++ {
		if _, err := db.Add(randSeqN(rng, 3, 40+rng.Intn(80))); err != nil {
			t.Fatal(err)
		}
	}
	tie := func(v float64) *Sequence {
		pts := make([]geom.Point, 20)
		for i := range pts {
			pts[i] = geom.Point{v, v, v}
		}
		return &Sequence{Points: pts}
	}
	if _, err := db.Add(tie(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(17); err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	var segs []*Segmented
	for id, g := range db.seqs {
		if g != nil {
			ids, segs = append(ids, uint32(id)), append(segs, g)
		}
	}
	queries := []*Sequence{randSeqN(rng, 3, 50), {Points: db.seqs[3].Seq.Slice(5, 45)}, randSeqN(rng, 3, 200), tie(2.1)}
	render := func(ms []Match) string {
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintf(&b, "%d:%x:%x:%d:%v ", m.SeqID, math.Float64bits(m.Dist), math.Float64bits(m.MinDnorm), m.Offset, m.Interval.Ranges())
		}
		return b.String()
	}
	for qi, seq := range queries {
		for _, m := range []Metric{nil, MetricD{}, MetricDTW{Window: 8}, MetricDTW{Window: -1}} {
			all, err := db.Do(ctx, Query{Seq: seq, Kind: Scan, Eps: math.MaxFloat64, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			own := math.Inf(1)
			for _, r := range all.Matches {
				if r.Dist > 0 && r.Dist < own {
					own = r.Dist
				}
			}
			var qs []Query
			for _, eps := range []float64{0, 0.3, 0.8, own} {
				qs = append(qs, Query{Seq: seq, Eps: eps, Metric: m}, Query{Seq: seq, Kind: Scan, Eps: eps, Metric: m})
			}
			if m != nil {
				for _, k := range []int{1, 7, 50} {
					qs = append(qs, Query{Seq: seq, Kind: KNN, K: k, Metric: m})
				}
			}
			for _, q := range qs {
				want, err := db.Do(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				var st SearchStats
				got, err := Unindexed(ctx, q, db.PartitionConfig(), ids, segs, &st)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("query %d %+v", qi, q)
				if render(got) != render(want.Matches) {
					t.Fatalf("%s:\n got %s\nwant %s", label, render(got), render(want.Matches))
				}
				if q.Kind == Range && m == nil && (st.CandidatesDmbr != want.Stats.CandidatesDmbr || st.DnormEvals != want.Stats.DnormEvals) {
					t.Fatalf("%s: candidates %d, Dnorm values %d; Do %d, %d", label, st.CandidatesDmbr, st.DnormEvals, want.Stats.CandidatesDmbr, want.Stats.DnormEvals)
				}
			}
		}
	}
}
