package core

import (
	"math/rand"
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

// TestReplaceSegmented: replacing a sequence re-indexes it — searches see
// the new content, and results equal a fresh database with the same
// final corpus.
func TestReplaceSegmented(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultPartitionConfig()
	db, _ := NewDatabase(Options{Dim: 3})
	defer db.Close()
	var finals []*Sequence
	for i := 0; i < 10; i++ {
		s := randSeqN(rng, 3, 50)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		finals = append(finals, s)
	}
	// Replace half the sequences with fresh content.
	for i := 0; i < 10; i += 2 {
		ns := randSeqN(rng, 3, 70)
		g, err := NewSegmented(ns, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ReplaceSegmented(uint32(i), g); err != nil {
			t.Fatal(err)
		}
		finals[i] = ns
	}
	ref, _ := NewDatabase(Options{Dim: 3})
	defer ref.Close()
	for _, s := range finals {
		if _, err := ref.Add(s.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	q := randSeqN(rng, 3, 40)
	for _, eps := range []float64{0.2, 0.6, 1.5} {
		got, _, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("eps %g: %d matches after replace, want %d", eps, len(got), len(want))
		}
		for i := range got {
			if got[i].SeqID != want[i].SeqID || got[i].MinDnorm != want[i].MinDnorm {
				t.Fatalf("eps %g: match %d differs", eps, i)
			}
		}
	}
}

// TestEvalRangeMatchesSearch: for every stored sequence, EvalRange's
// verdict and Match content must agree with what the indexed search
// reports — including sequences the index would prune (hit=false).
func TestEvalRangeMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultPartitionConfig()
	db, _ := NewDatabase(Options{Dim: 3})
	defer db.Close()
	n := 40
	for i := 0; i < n; i++ {
		if _, err := db.Add(randSeqN(rng, 3, 40+rng.Intn(80))); err != nil {
			t.Fatal(err)
		}
	}
	q := randSeqN(rng, 3, 50)
	qseg, err := NewSegmented(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.3, 0.8} {
		matches, _, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[uint32]Match{}
		for _, m := range matches {
			byID[m.SeqID] = m
		}
		for id := 0; id < n; id++ {
			g := db.Segmented(uint32(id))
			m, hit, _ := EvalRange(qseg, g, eps)
			want, inSearch := byID[uint32(id)]
			if hit != inSearch {
				t.Fatalf("eps %g seq %d: EvalRange hit=%v, indexed search found=%v", eps, id, hit, inSearch)
			}
			if hit {
				if m.MinDnorm != want.MinDnorm {
					t.Fatalf("eps %g seq %d: MinDnorm %g, want %g", eps, id, m.MinDnorm, want.MinDnorm)
				}
				gr, wr := m.Interval.Ranges(), want.Interval.Ranges()
				if len(gr) != len(wr) {
					t.Fatalf("eps %g seq %d: %d interval ranges, want %d", eps, id, len(gr), len(wr))
				}
				for k := range gr {
					if gr[k] != wr[k] {
						t.Fatalf("eps %g seq %d: interval range %d differs", eps, id, k)
					}
				}
			}
		}
	}
}
