package core

// Equivalence suite for the hit-driven refine: phase 2 records which
// query MBRs hit which sequence, phase 3 (refineOne) evaluates only those
// pairs, or a sequence shorter than the query by the role rule. Every
// production range path must return what the seed reference returns —
// phase3One, every pair evaluated, the role rule in knnSeqBoundRef's seed
// form, over the same candidates — bit for bit. internal/txn's TestPhase3HitsEquivalenceTxn ties the
// transaction layer (delta scan and folded base) to the same answers
// through a plain Database.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// phase3Corpus builds a database under cfg with the shapes the kernel has
// branches for: random walks, some shorter than the 70-point query, a
// 3-point sequence (shorter than every query: the role rule), and a removed
// id in the middle of the directory (a nil slot the hit table still has a
// row for).
func phase3Corpus(t *testing.T, dim int, cfg PartitionConfig, seed int64) (*Database, []*Sequence) {
	t.Helper()
	db, err := NewDatabase(Options{Dim: dim, Partition: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(seed))
	var live []*Sequence
	for i := 0; i < 36; i++ {
		n := 40 + rng.Intn(100)
		if i == 7 {
			n = 3
		}
		s := randWalkSeq(rng, n, dim)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		if i != 11 && i != 7 {
			live = append(live, s)
		}
	}
	if err := db.Remove(11); err != nil {
		t.Fatal(err)
	}
	return db, live
}

// phase3Queries draws windows of stored sequences (matches at small eps),
// one of them 70 points long, plus fresh walks. Under MaxPoints 1 the
// long one has 70 query MBRs, so its hit rows are two words wide.
func phase3Queries(seqs []*Sequence, dim int, seed int64) []*Sequence {
	rng := rand.New(rand.NewSource(seed))
	qs := hotQueries(seqs, dim, seed)
	for {
		src := seqs[rng.Intn(len(seqs))]
		if src.Len() > 70 {
			off := rng.Intn(src.Len() - 70)
			return append(qs, &Sequence{Points: src.Points[off : off+70]})
		}
	}
}

func TestPhase3HitsEquivalence(t *testing.T) {
	ctx := context.Background()
	cfgs := []PartitionConfig{DefaultPartitionConfig(), {QueryExtent: 0.3, MaxPoints: 1}}
	for _, dim := range []int{2, 3, 4, 8} {
		for ci, cfg := range cfgs {
			db, seqs := phase3Corpus(t, dim, cfg, int64(500+10*dim+ci))
			qs := phase3Queries(seqs, dim, int64(dim))
			if ci == 1 {
				var p Prepared
				p.segmentQuery(qs[len(qs)-1], cfg)
				n := len(p.qmbrs)
				if n <= 64 {
					t.Fatalf("long query has %d MBRs; the suite needs more than 64", n)
				}
			}
			skipped := false
			for _, eps := range []float64{0.02, 0.05, 0.15, 0.3, 0.6} {
				wants := make([][]Match, len(qs))
				serial := make([]SearchStats, len(qs))
				for qi, q := range qs {
					label := fmt.Sprintf("dim %d maxpoints %d eps %g query %d", dim, cfg.MaxPoints, eps, qi)
					wants[qi] = searchReference(t, db, q, eps)
					for _, m := range wants[qi] {
						if m.SeqID == 11 {
							t.Fatalf("%s: reference matched the removed id", label)
						}
					}
					got, st, err := db.SearchCtx(ctx, q, eps)
					if err != nil {
						t.Fatal(err)
					}
					matchesEqual(t, label+" serial", got, wants[qi])
					serial[qi] = st

					// The reference evaluates every pair; the kernel must never
					// evaluate more, and must skip some somewhere in the sweep.
					qseg, err := NewSegmented(q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cand, err := db.CandidatesDmbr(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					full := 0
					for id := range cand {
						full += len(qseg.MBRs) * len(db.seqs[id].MBRs)
					}
					if st.DnormEvals > full {
						t.Fatalf("%s: %d Dnorm evals, all pairs are %d", label, st.DnormEvals, full)
					}
					skipped = skipped || st.DnormEvals < full
				}
				bout, bst, err := db.SearchBatchCtx(ctx, qs, eps)
				if err != nil {
					t.Fatal(err)
				}
				for qi := range qs {
					label := fmt.Sprintf("dim %d maxpoints %d eps %g query %d batch", dim, cfg.MaxPoints, eps, qi)
					matchesEqual(t, label, bout[qi], wants[qi])
					if bst[qi].DnormEvals != serial[qi].DnormEvals || bst[qi].CandidatesDmbr != serial[qi].CandidatesDmbr ||
						bst[qi].IndexEntriesHit != serial[qi].IndexEntriesHit {
						t.Fatalf("%s: stats %+v, serial %+v", label, bst[qi], serial[qi])
					}
				}
			}
			if !skipped {
				t.Fatalf("dim %d maxpoints %d: no query skipped a pair; the suite does not exercise the hit table", dim, cfg.MaxPoints)
			}
		}
	}
}

// TestPhase3AllPairsMatchesReference pins the index-free entry point —
// Unindexed, whose linear phase 2 fills the hit rows itself — to the seed
// form over every sequence, candidate or not.
func TestPhase3AllPairsMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, dim := range []int{2, 3, 4, 8} {
		cfg := DefaultPartitionConfig()
		db, seqs := phase3Corpus(t, dim, cfg, int64(700+dim))
		var ids []uint32
		var segs []*Segmented
		for id, g := range db.seqs {
			if g != nil {
				ids, segs = append(ids, uint32(id)), append(segs, g)
			}
		}
		for qi, q := range phase3Queries(seqs, dim, int64(90+dim)) {
			qseg, err := NewSegmented(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.05, 0.3} {
				label := fmt.Sprintf("dim %d query %d eps %g", dim, qi, eps)
				var want []Match
				for i, g := range segs {
					if m, hit := phase3One(qseg, g, q.Len(), eps); hit {
						m.SeqID = ids[i]
						want = append(want, m)
					}
				}
				got, err := Unindexed(ctx, Query{Seq: q, Eps: eps}, cfg, ids, segs, new(SearchStats))
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, label, got, want)
			}
		}
	}
}

// TestRangeKeepsTieBehindFarPrefix: a phase-3 window is a difference of the
// running sums wpre, and behind an MBR thousands of units away those sums are
// large enough that the difference's rounding — an ulp of the far prefix —
// can put the window of the best alignment above the computed D. A range
// search at ε = D (the scan's own distance) must find the sequence anyway,
// through the index and through Unindexed, under the paper's answer and
// under MetricD: phase 3 widens each pair's threshold by that cancellation
// margin. Without it about two in five of these shapes were dismissed.
func TestRangeKeepsTieBehindFarPrefix(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		db, err := NewDatabase(Options{Dim: 3})
		if err != nil {
			t.Fatal(err)
		}
		far := 10 + rng.Float64()*1e4
		var pts []geom.Point
		for i := 5 + rng.Intn(10); i > 0; i-- {
			pts = append(pts, geom.Point{far, far, far})
		}
		for seg := 0; seg < 4; seg++ {
			v := geom.Point{2 + rng.Float64()*0.8, 2 + rng.Float64()*0.8, 2}
			for i := 3 + rng.Intn(6); i > 0; i-- {
				pts = append(pts, v)
			}
		}
		if _, err := db.Add(&Sequence{Points: pts}); err != nil {
			t.Fatal(err)
		}
		qv := 2 + rng.Float64()*0.5
		qp := make([]geom.Point, 12+rng.Intn(8))
		for i := range qp {
			qp[i] = geom.Point{qv, qv, 2}
		}
		q := &Sequence{Points: qp}
		for _, m := range []Metric{nil, MetricD{}} {
			scan, err := db.Do(ctx, Query{Seq: q, Kind: Scan, Eps: math.MaxFloat64, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			at := Query{Seq: q, Eps: scan.Matches[0].Dist, Metric: m}
			got, err := db.Do(ctx, at)
			if err != nil {
				t.Fatal(err)
			}
			un, err := Unindexed(ctx, at, db.PartitionConfig(), []uint32{0}, db.seqs, new(SearchStats))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Matches) != 1 || len(un) != 1 {
				t.Fatalf("trial %d metric %v: at eps = D = %v, Do found %d and Unindexed %d", trial, m, at.Eps, len(got.Matches), len(un))
			}
		}
		db.Close()
	}
}

// TestRangeFindsMatchBehindOverflowedDmbr: points 5–14 of a walk near 1e200
// make the squared Dmbr of the far MBRs overflow to +Inf, and one running
// sum over the whole sequence made every window after them Inf − Inf: a copy
// of points 187–197, at D = 0 in the scan, was dismissed at every ε. Phase 3
// restarts the sums behind such an MBR (phase3Hits), through the index and
// through Unindexed, under the paper's answer and under MetricD.
func TestRangeFindsMatchBehindOverflowedDmbr(t *testing.T) {
	ctx := context.Background()
	s := randWalkSeq(rand.New(rand.NewSource(179)), 200, 3)
	for i := 5; i < 15; i++ {
		s.Points[i] = geom.Point{1e200 * (1 + float64(i)*1e-3), 1e200, 1e200}
	}
	db := newTestDB(t, 3)
	if _, err := db.Add(s); err != nil {
		t.Fatal(err)
	}
	q := &Sequence{Points: append([]geom.Point(nil), s.Points[187:198]...)}
	for _, m := range []Metric{nil, MetricD{}} {
		for _, eps := range []float64{0, 0.01, 1} {
			at := Query{Seq: q, Eps: eps, Metric: m}
			scan, err := db.Do(ctx, Query{Seq: q, Kind: Scan, Eps: eps, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Do(ctx, at)
			if err != nil {
				t.Fatal(err)
			}
			un, err := Unindexed(ctx, at, db.PartitionConfig(), []uint32{0}, db.seqs, new(SearchStats))
			if err != nil {
				t.Fatal(err)
			}
			if len(scan.Matches) != 1 || len(got.Matches) != 1 || len(un) != 1 {
				t.Fatalf("metric %v eps %g: the scan found %d, Do %d and Unindexed %d", m, eps, len(scan.Matches), len(got.Matches), len(un))
			}
			if m == nil && !got.Matches[0].Interval.Contains(187) {
				t.Fatalf("eps %g: interval %v misses the match at 187", eps, got.Matches[0].Interval.String())
			}
		}
	}
}
