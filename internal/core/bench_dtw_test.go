package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestDTWSpeedup is the A/B for the DTW metric path: the same kNN workload
// run through the envelope-pruned indexed search (SearchKNNMetric) and
// through an exhaustive exact-DTW scan. It asserts the two answer
// identically — the no-false-dismissal property — and that the pruning
// ladder actually prunes; the range equivalence is also A/B'd and its
// pruned fraction reported from SearchStats. It times nothing: the scan
// runs the same dynamic program the index refines with, so a wall-clock
// ratio would measure pruning only, and TestKernelCountersUnchanged pins
// the pruning as exact counts.
func TestDTWSpeedup(t *testing.T) {
	const dim, nseq, k = 4, 150, 5
	const window = 10
	db := newTestDB(t, dim)
	rng := rand.New(rand.NewSource(83))
	seqs := make([]*Sequence, nseq)
	for i := range seqs {
		s := randWalkSeq(rng, 40+rng.Intn(80), dim)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		seqs[i] = s
	}
	mt := MetricDTW{Window: window}
	var qs []*Sequence
	for i := 0; i < 8; i++ {
		src := seqs[rng.Intn(len(seqs))]
		qs = append(qs, &Sequence{Label: "q", Points: src.Points[:30+rng.Intn(30)]})
	}

	// Exhaustive DTW top-k: every sequence's exact distance, no bounds.
	scanKNN := func(q *Sequence) []KNNResult {
		all, err := db.SequentialSearchMetric(q, math.MaxFloat64, mt)
		if err != nil {
			t.Fatal(err)
		}
		var out []KNNResult
		for _, m := range all {
			out = InsertKNN(out, KNNResult{SeqID: m.SeqID, Seq: m.Seq, Dist: m.Dist}, k)
		}
		return out
	}
	// Identical results.
	for qi, q := range qs {
		got, err := db.SearchKNNMetric(q, k, mt)
		if err != nil {
			t.Fatal(err)
		}
		want := scanKNN(q)
		if len(got) != len(want) {
			t.Fatalf("query %d: indexed %d neighbors, scan %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].SeqID != want[i].SeqID ||
				math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("query %d neighbor %d: indexed (%d, %v), scan (%d, %v)",
					qi, i, got[i].SeqID, got[i].Dist, want[i].SeqID, want[i].Dist)
			}
		}
	}

	// Pruning must be real: over the range workload, some candidates die
	// at the envelope or LB_Keogh rung before the dynamic program.
	const eps = 0.35
	var cand, envPruned, keoghPruned, evals int
	for _, q := range qs {
		_, st, err := db.SearchMetric(q, eps, mt)
		if err != nil {
			t.Fatal(err)
		}
		cand += st.CandidatesDmbr
		envPruned += st.DTWEnvPruned
		keoghPruned += st.DTWKeoghPruned
		evals += st.DTWEvals
	}
	if cand == 0 {
		t.Fatal("range workload produced no candidates; the A/B measures nothing")
	}
	prunedFrac := float64(cand-evals) / float64(cand)
	if envPruned+keoghPruned == 0 {
		t.Errorf("no candidate was pruned by a lower bound (candidates %d, evals %d)", cand, evals)
	}
	t.Logf("range pruning: %d candidates, %d env-pruned, %d keogh-pruned, %d exact evals (pruned frac %.2f)",
		cand, envPruned, keoghPruned, evals, prunedFrac)
}
