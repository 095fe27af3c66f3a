package core

// Equivalence suite for the hit-driven refine: phase 2 records which
// query MBRs hit which sequence, phase 3 (phase3Hits) evaluates only those
// pairs. Every production range path must return what the seed reference
// returns — phase3One, every pair evaluated, over the same candidates —
// bit for bit. internal/txn's TestPhase3HitsEquivalenceTxn ties the
// transaction layer (delta scan and folded base) to the same answers
// through a plain Database.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// phase3Corpus builds a database under cfg with the shapes the kernel has
// branches for: random walks, a 3-point sequence (shorter than a query
// MBR, the short-sequence clamp), and a removed id in the middle of the
// directory (a nil slot the hit table still has a row for).
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
				sc := getScratch()
				sc.segmentQuery(qs[len(qs)-1], cfg)
				n := len(sc.qmbrs)
				putScratch(sc)
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

// TestPhase3AllPairsMatchesReference pins the index-free entry point (nil
// hit row: the delta scan's EvalRange) to the seed form over every
// sequence, candidate or not.
func TestPhase3AllPairsMatchesReference(t *testing.T) {
	for _, dim := range []int{2, 3, 4, 8} {
		cfg := DefaultPartitionConfig()
		db, seqs := phase3Corpus(t, dim, cfg, int64(700+dim))
		for qi, q := range phase3Queries(seqs, dim, int64(90+dim)) {
			qseg, err := NewSegmented(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for id, g := range db.seqs {
				if g == nil {
					continue
				}
				label := fmt.Sprintf("dim %d query %d seq %d", dim, qi, id)
				for _, eps := range []float64{0.05, 0.3} {
					want, whit, wevals := phase3One(qseg, g, q.Len(), eps)
					got, hit, evals := EvalRange(qseg, g, eps)
					if hit != whit || evals != wevals {
						t.Fatalf("%s eps %g: hit %v evals %d, reference %v %d", label, eps, hit, evals, whit, wevals)
					}
					matchesEqual(t, label, []Match{got}, []Match{want})
				}
			}
		}
	}
}
