package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSearchKNNMatchesExhaustive(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(70))
	seqs := populateWalks(t, db, 50, rng)
	for trial := 0; trial < 8; trial++ {
		q := randWalkSeq(rng, 20+rng.Intn(50), 3)
		const k = 5
		got, err := db.SearchKNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("got %d results, want %d", len(got), k)
		}
		// Exhaustive reference.
		type ref struct {
			id   int
			dist float64
		}
		refs := make([]ref, len(seqs))
		for i, s := range seqs {
			refs[i] = ref{i, D(q, s)}
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].dist < refs[j].dist })
		for i := 0; i < k; i++ {
			if !almostEqual(got[i].Dist, refs[i].dist) {
				t.Fatalf("trial %d: rank %d dist %g, want %g", trial, i, got[i].Dist, refs[i].dist)
			}
		}
		// Sorted, annotated.
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("results not sorted")
			}
		}
		for _, r := range got {
			if r.Seq == nil {
				t.Fatal("result without sequence")
			}
		}
	}
}

func TestSearchKNNEdgeCases(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(71))
	populateWalks(t, db, 5, rng)
	q := randWalkSeq(rng, 20, 3)
	if got, err := db.SearchKNN(q, 0); err != nil || got != nil {
		t.Errorf("k=0: %v %v", got, err)
	}
	got, err := db.SearchKNN(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("k beyond db size: %d results, want 5", len(got))
	}
	if _, err := db.SearchKNN(&Sequence{}, 3); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := db.SearchKNN(seqFromCoords(1, 2), 3); err == nil {
		t.Error("wrong-dim query accepted")
	}
}

func TestSearchKNNSelfIsNearest(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(72))
	seqs := populateWalks(t, db, 30, rng)
	q := &Sequence{Points: seqs[12].Points[5:35]}
	got, err := db.SearchKNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Dist != 0 {
		t.Fatalf("nearest = %+v, want distance 0", got)
	}
	if got[0].SeqID != 12 {
		// Another sequence could also contain the exact subsequence, but
		// with random walks that is vanishingly unlikely.
		t.Errorf("nearest id = %d, want 12", got[0].SeqID)
	}
	if got[0].Offset != 5 {
		t.Errorf("offset = %d, want 5", got[0].Offset)
	}
}

func TestRemove(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(73))
	seqs := populateWalks(t, db, 20, rng)
	before := db.NumMBRs()

	if err := db.Remove(7); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 19 {
		t.Errorf("Len = %d, want 19", db.Len())
	}
	if db.NumMBRs() >= before {
		t.Errorf("NumMBRs = %d, want < %d", db.NumMBRs(), before)
	}
	if db.Segmented(7) != nil {
		t.Error("removed sequence still retrievable")
	}
	if err := db.Remove(7); err == nil {
		t.Error("double remove accepted")
	}
	if err := db.Remove(999); err == nil {
		t.Error("unknown id accepted")
	}

	// The removed sequence is gone from search results even for an exact
	// query.
	q := &Sequence{Points: seqs[7].Points[10:40]}
	matches, _, err := db.Search(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.SeqID == 7 {
			t.Error("removed sequence returned by Search")
		}
	}
	exact, err := db.SequentialSearch(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range exact {
		if r.SeqID == 7 {
			t.Error("removed sequence returned by SequentialSearch")
		}
	}
	knn, err := db.SearchKNN(q, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range knn {
		if r.SeqID == 7 {
			t.Error("removed sequence returned by SearchKNN")
		}
	}

	// Remaining sequences still searchable with no false dismissals.
	q2 := &Sequence{Points: seqs[3].Points[0:30]}
	matches, _, err = db.Search(q2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.SeqID == 3 {
			found = true
		}
	}
	if !found {
		t.Error("surviving sequence not found after Remove")
	}
}

func TestRemoveAllThenAdd(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(74))
	populateWalks(t, db, 10, rng)
	for id := uint32(0); id < 10; id++ {
		if err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 0 || db.NumMBRs() != 0 {
		t.Fatalf("Len=%d NumMBRs=%d after removing all", db.Len(), db.NumMBRs())
	}
	s := randWalkSeq(rng, 50, 3)
	id, err := db.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	if id != 10 {
		t.Errorf("new id = %d, want 10 (ids are not reused)", id)
	}
	matches, _, err := db.Search(&Sequence{Points: s.Points[:20]}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].SeqID != 10 {
		t.Errorf("matches = %+v", matches)
	}
}

func TestInsertKNNKeepsTopK(t *testing.T) {
	var rs []KNNResult
	for _, d := range []float64{0.5, 0.2, 0.9, 0.1, 0.7} {
		rs = InsertKNN(rs, KNNResult{Dist: d}, 3)
	}
	want := []float64{0.1, 0.2, 0.5}
	if len(rs) != 3 {
		t.Fatalf("kept %d", len(rs))
	}
	for i, w := range want {
		if rs[i].Dist != w {
			t.Errorf("rank %d = %g, want %g", i, rs[i].Dist, w)
		}
	}
	// Equal distances are ordered by id, whatever order they arrive in, and
	// the cut at k falls on the largest id.
	rs = nil
	for _, id := range []uint32{7, 2, 9, 4} {
		rs = InsertKNN(rs, KNNResult{SeqID: id, Dist: 0.5}, 3)
	}
	rs = InsertKNN(rs, KNNResult{SeqID: 8, Dist: 0.1}, 3)
	if len(rs) != 3 || rs[0].SeqID != 8 || rs[1].SeqID != 2 || rs[2].SeqID != 4 {
		t.Errorf("tied insertions kept %+v, want ids 8, 2, 4", rs)
	}
}

func TestKNNBoundIsLowerBound(t *testing.T) {
	// The pruning in SearchKNN is only correct if the Dnorm bound never
	// exceeds the exact distance; spot-check the internal invariant.
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(75))
	seqs := populateWalks(t, db, 30, rng)
	q := randWalkSeq(rng, 40, 3)
	qseg, err := NewSegmented(q, db.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		g := db.Segmented(uint32(i))
		bound := math.Inf(1)
		for _, qm := range qseg.MBRs {
			c := newDnormCalc(qm.Rect, qm.Count(), g)
			if d := c.sweep(math.Inf(-1), nil); d < bound {
				bound = d
			}
		}
		if exact := D(q, s); bound > exact+1e-9 {
			t.Fatalf("sequence %d: bound %g > exact %g", i, bound, exact)
		}
	}
}
