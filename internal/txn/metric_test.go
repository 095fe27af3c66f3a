package txn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestTxnMetricEquivalence drives a randomized op stream into the txn
// layer and a plain core.Database and requires the metric query surface
// — DTW range, DTW kNN, and the exhaustive metric scan — to answer
// byte-identically: with the delta unfolded (indexed base + EvalMetric
// delta scan), after a checkpoint fold, and after a second op wave.
func TestTxnMetricEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := newMem(t, 3)
	ref := newRef(t, 3)
	var live []uint32

	wave := func(n int) {
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 6 || len(live) == 0: // add
				s := randSeq(rng, 3, 10+rng.Intn(30))
				id, err := db.Add(clonePoints(s))
				if err != nil {
					t.Fatalf("Add: %v", err)
				}
				rid, err := ref.Add(clonePoints(s))
				if err != nil || rid != id {
					t.Fatalf("ref Add: id %d vs %d err=%v", rid, id, err)
				}
				live = append(live, id)
			case k < 8: // append
				id := live[rng.Intn(len(live))]
				ext := randSeq(rng, 3, 1+rng.Intn(6)).Points
				if err := db.AppendPoints(id, ext); err != nil {
					t.Fatalf("AppendPoints(%d): %v", id, err)
				}
				if err := ref.AppendPoints(id, ext); err != nil {
					t.Fatalf("ref AppendPoints(%d): %v", id, err)
				}
			default: // remove
				j := rng.Intn(len(live))
				id := live[j]
				if err := db.Remove(id); err != nil {
					t.Fatalf("Remove(%d): %v", id, err)
				}
				if err := ref.Remove(id); err != nil {
					t.Fatalf("ref Remove(%d): %v", id, err)
				}
				live = append(live[:j], live[j+1:]...)
			}
		}
	}

	var queries []*core.Sequence
	for i := 0; i < 4; i++ {
		queries = append(queries, randSeq(rng, 3, 8+rng.Intn(14)))
	}
	metrics := []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}, core.MetricDTW{Window: 3}}

	sameMatches := func(stage string, got, want []core.MetricMatch) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches, want %d", stage, len(got), len(want))
		}
		for i := range want {
			if got[i].SeqID != want[i].SeqID ||
				math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("%s: match %d = (%d, %v), want (%d, %v)",
					stage, i, got[i].SeqID, got[i].Dist, want[i].SeqID, want[i].Dist)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		for qi, q := range queries {
			for mi, m := range metrics {
				for _, eps := range []float64{1, 4} {
					label := labelf("%s q=%d m=%d eps=%v", stage, qi, mi, eps)
					got, _, err := db.SearchMetricCtx(context.Background(), q, eps, m)
					if err != nil {
						t.Fatalf("%s: SearchMetric: %v", label, err)
					}
					want, _, err := ref.SearchMetricCtx(context.Background(), q, eps, m)
					if err != nil {
						t.Fatalf("%s: ref SearchMetric: %v", label, err)
					}
					sameMatches(label+" range", got, want)
					scan, err := scanMetric(db, q, eps, m)
					if err != nil {
						t.Fatalf("%s: SequentialSearchMetric: %v", label, err)
					}
					sameMatches(label+" scan", scan, want)
				}
				nn, err := db.SearchKNNMetricCtx(context.Background(), q, 5, m)
				if err != nil {
					t.Fatalf("%s: SearchKNNMetric: %v", stage, err)
				}
				rnn, err := ref.SearchKNNMetricCtx(context.Background(), q, 5, m)
				if err != nil {
					t.Fatalf("%s: ref SearchKNNMetric: %v", stage, err)
				}
				if len(nn) != len(rnn) {
					t.Fatalf("%s m=%d: %d neighbors, want %d", stage, mi, len(nn), len(rnn))
				}
				for i := range rnn {
					if nn[i].SeqID != rnn[i].SeqID ||
						math.Float64bits(nn[i].Dist) != math.Float64bits(rnn[i].Dist) {
						t.Fatalf("%s m=%d: neighbor %d = (%d, %v), want (%d, %v)",
							stage, mi, i, nn[i].SeqID, nn[i].Dist, rnn[i].SeqID, rnn[i].Dist)
					}
				}
			}
		}
	}

	wave(40)
	check("delta")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	check("folded")
	wave(30)
	check("second wave")
}

func labelf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
