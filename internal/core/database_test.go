package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

func newTestDB(t *testing.T, dim int) *Database {
	t.Helper()
	db, err := NewDatabase(Options{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// populateWalks fills db with n random-walk sequences and returns them.
func populateWalks(t *testing.T, db *Database, n int, rng *rand.Rand) []*Sequence {
	t.Helper()
	seqs := make([]*Sequence, n)
	for i := range seqs {
		s := randWalkSeq(rng, 40+rng.Intn(120), 3)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		seqs[i] = s
	}
	return seqs
}

func TestNewDatabaseValidation(t *testing.T) {
	if _, err := NewDatabase(Options{Dim: 0}); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := NewDatabase(Options{Dim: 3, Partition: PartitionConfig{QueryExtent: -1, MaxPoints: 4}}); err == nil {
		t.Error("bad partition config accepted")
	}
}

func TestAddAssignsIDsAndIndexes(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(40))
	s1 := randWalkSeq(rng, 60, 3)
	s2 := randWalkSeq(rng, 80, 3)
	id1, err := db.Add(s1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := db.Add(s2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 0 || id2 != 1 {
		t.Errorf("ids = %d, %d", id1, id2)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
	if db.NumMBRs() == 0 {
		t.Error("no MBRs indexed")
	}
	g := db.Segmented(id1)
	if g == nil || g.Seq != s1 {
		t.Error("Segmented(id1) wrong")
	}
	if db.Segmented(99) != nil {
		t.Error("unknown id should return nil")
	}
}

func TestAddRejectsWrongDim(t *testing.T) {
	db := newTestDB(t, 3)
	if _, err := db.Add(seqFromCoords(1, 2, 3)); err == nil {
		t.Error("1-D sequence accepted by 3-D database")
	}
	if _, err := db.Add(&Sequence{}); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestSearchValidation(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(41))
	populateWalks(t, db, 3, rng)
	q := randWalkSeq(rng, 20, 3)
	if _, _, err := db.Search(q, -0.1); err == nil {
		t.Error("negative eps accepted")
	}
	if _, _, err := db.Search(seqFromCoords(1, 2), 0.1); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, _, err := db.Search(&Sequence{}, 0.1); err == nil {
		t.Error("empty query accepted")
	}
}

// TestNoFalseDismissals is the paper's central correctness claim: every
// sequence the exact sequential scan finds (D(Q,S) ≤ ε) must also be
// returned by the three-phase MBR search.
func TestNoFalseDismissals(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(42))
	populateWalks(t, db, 60, rng)
	for trial := 0; trial < 15; trial++ {
		q := randWalkSeq(rng, 15+rng.Intn(60), 3)
		for _, eps := range []float64{0.05, 0.15, 0.3, 0.5} {
			exact, err := db.SequentialSearch(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := db.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			inGot := make(map[uint32]bool, len(got))
			for _, m := range got {
				inGot[m.SeqID] = true
			}
			for _, r := range exact {
				if !inGot[r.SeqID] {
					t.Fatalf("trial %d eps %g: sequence %d (D=%g) falsely dismissed",
						trial, eps, r.SeqID, r.Dist)
				}
			}
		}
	}
}

// TestPruningHierarchy: relevant ⊆ ASnorm ⊆ ASmbr — phase 3 only ever
// shrinks the phase-2 candidate set, never grows it.
func TestPruningHierarchy(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(43))
	populateWalks(t, db, 60, rng)
	q := randWalkSeq(rng, 40, 3)
	for _, eps := range []float64{0.05, 0.2, 0.4} {
		asmbr, err := db.CandidatesDmbr(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		matches, st, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if st.CandidatesDmbr != len(asmbr) {
			t.Errorf("eps %g: stats candidates %d != CandidatesDmbr %d", eps, st.CandidatesDmbr, len(asmbr))
		}
		if len(matches) > len(asmbr) {
			t.Errorf("eps %g: |ASnorm| %d > |ASmbr| %d", eps, len(matches), len(asmbr))
		}
		for _, m := range matches {
			if !asmbr[m.SeqID] {
				t.Errorf("eps %g: match %d not in ASmbr", eps, m.SeqID)
			}
		}
	}
}

func TestSearchResultsSortedAndAnnotated(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(44))
	populateWalks(t, db, 40, rng)
	q := randWalkSeq(rng, 30, 3)
	matches, st, err := db.Search(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if st.QueryMBRs < 1 {
		t.Errorf("QueryMBRs = %d", st.QueryMBRs)
	}
	if st.TotalSequences != 40 {
		t.Errorf("TotalSequences = %d", st.TotalSequences)
	}
	for i, m := range matches {
		if i > 0 && matches[i-1].SeqID >= m.SeqID {
			t.Error("matches not sorted by id")
		}
		if m.Seq == nil {
			t.Error("match without sequence")
		}
		if m.Interval.IsEmpty() {
			t.Errorf("match %d with empty solution interval", m.SeqID)
		}
		if m.MinDnorm > 0.4 {
			t.Errorf("match %d MinDnorm %g > eps", m.SeqID, m.MinDnorm)
		}
		for _, r := range m.Interval.Ranges() {
			if r.Start < 0 || r.End > m.Seq.Len() {
				t.Errorf("interval %v outside sequence of %d points", r, m.Seq.Len())
			}
		}
	}
}

// TestSolutionIntervalRecall measures the quality claim of Section 4.2.2 on
// random-walk data: the approximated interval should recover nearly all
// exact solution points. We assert a conservative 90% aggregate floor
// (the paper reports 98-100% on its workloads; the experiment harness
// reproduces that figure — this test just guards against regressions that
// break the approximation wholesale).
func TestSolutionIntervalRecall(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(45))
	populateWalks(t, db, 50, rng)
	var inter, scan int
	for trial := 0; trial < 10; trial++ {
		q := randWalkSeq(rng, 30+rng.Intn(40), 3)
		eps := 0.15 + 0.05*float64(trial%5)
		exact, err := db.SequentialSearch(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		matches, _, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[uint32]*Match)
		for i := range matches {
			byID[matches[i].SeqID] = &matches[i]
		}
		for _, r := range exact {
			scan += r.Interval.NumPoints()
			if m, ok := byID[r.SeqID]; ok {
				inter += r.Interval.IntersectCount(&m.Interval)
			}
		}
	}
	if scan == 0 {
		t.Skip("no relevant sequences in this configuration")
	}
	recall := float64(inter) / float64(scan)
	if recall < 0.90 {
		t.Errorf("aggregate solution-interval recall = %.3f, want >= 0.90", recall)
	}
}

func TestSearchOnClosedDatabase(t *testing.T) {
	db, err := NewDatabase(Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	s := randWalkSeq(rng, 30, 3)
	if _, err := db.Add(s); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if _, err := db.Add(s); err == nil {
		t.Error("Add after Close accepted")
	}
	if _, _, err := db.Search(s, 0.1); err == nil {
		t.Error("Search after Close accepted")
	}
}

func TestFileBackedDatabase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.db")
	db, err := NewDatabase(Options{Dim: 3, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(47))
	seqs := populateWalks(t, db, 20, rng)
	q := randWalkSeq(rng, 25, 3)
	matches, _, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := db.SequentialSearch(q, 0.3)
	inGot := make(map[uint32]bool)
	for _, m := range matches {
		inGot[m.SeqID] = true
	}
	for _, r := range exact {
		if !inGot[r.SeqID] {
			t.Errorf("file-backed search dismissed %d", r.SeqID)
		}
	}

	// A Remove leaves every other sequence findable.
	if err := db.Remove(4); err != nil {
		t.Fatal(err)
	}
	matches, _, err = db.Search(&Sequence{Points: seqs[9].Points[5:30]}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		found = found || m.SeqID == 9
		if m.SeqID == 4 {
			t.Error("removed sequence 4 still answers")
		}
	}
	if !found {
		t.Error("file-backed database lost sequence 9 after a Remove")
	}
}

func TestIdenticalSequenceAlwaysFound(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(48))
	seqs := populateWalks(t, db, 20, rng)
	// A query equal to a stored subsequence has D = 0 and must be found at
	// any threshold.
	target := seqs[7]
	q := &Sequence{Points: target.Points[10:40]}
	matches, _, err := db.Search(q, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.SeqID == 7 {
			found = true
		}
	}
	if !found {
		t.Error("exact subsequence not found at eps=0")
	}
}

func TestQueryLongerThanData(t *testing.T) {
	// Section 1's "long query": the query exceeds every stored sequence;
	// search must still work, comparing data slid inside the query.
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(49))
	short := randWalkSeq(rng, 20, 3)
	if _, err := db.Add(short); err != nil {
		t.Fatal(err)
	}
	// Query embeds the stored sequence, padded both sides.
	var pts []geom.Point
	pad := randWalkSeq(rng, 15, 3)
	pts = append(pts, pad.Points...)
	pts = append(pts, short.Points...)
	pts = append(pts, pad.Points...)
	q := &Sequence{Points: pts}

	exact, err := db.SequentialSearch(q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 1 {
		t.Fatalf("sequential scan found %d, want 1 (D should be 0)", len(exact))
	}
	matches, _, err := db.Search(q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].SeqID != 0 {
		t.Fatalf("long query: matches = %+v", matches)
	}
}

func TestPagerStatsExposed(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(50))
	populateWalks(t, db, 10, rng)
	db.ResetPagerStats()
	q := randWalkSeq(rng, 20, 3)
	if _, _, err := db.Search(q, 0.2); err != nil {
		t.Fatal(err)
	}
	if db.PagerStats().Fetches == 0 {
		t.Error("search fetched no pages")
	}
}

func TestPartitionConfigAccessor(t *testing.T) {
	db := newTestDB(t, 3)
	if got := db.PartitionConfig(); got != DefaultPartitionConfig() {
		t.Errorf("PartitionConfig = %+v", got)
	}
}
