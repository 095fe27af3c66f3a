package txn

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// rankedScan is the snapshot's exhaustive scan ordered as a kNN answer is:
// every live sequence by (Dist, SeqID).
func rankedScan(t *testing.T, db *DB, q *core.Sequence, m core.Metric) []core.MetricMatch {
	t.Helper()
	scan, err := scanMetric(db, q, math.MaxFloat64, m)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(scan, func(a, b core.MetricMatch) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SeqID, b.SeqID))
	})
	return scan
}

// TestKNNIndexWalkMatchesScan is the transaction layer's side of core's
// differential test: the base answers k' from its index walk, the delta is
// scored beside it, and the merge — with a non-empty delta, tombstones over
// base and delta sequences, appends overlaying base sequences, and twins
// that tie across the base/delta seam — equals the snapshot's exhaustive
// scan sorted by (Dist, SeqID) and cut at k, ids and distance bits, for
// every k and bound of the core test, under D and DTW, the bound a pooling
// one so that the merge's offers are live.
func TestKNNIndexWalkMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := newMem(t, 2)
	var base []*core.Sequence
	for i := 0; i < 40; i++ {
		s := randSeq(rng, 2, 2+rng.Intn(40))
		base = append(base, s)
		if _, err := db.Add(clonePoints(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		s := randSeq(rng, 2, 2+rng.Intn(40))
		if i%5 == 0 {
			s = base[i] // a twin of a base sequence, in the delta
		}
		if _, err := db.Add(clonePoints(s)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{3, 10, 17, 44, 51} { // base and delta tombstones
		if err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{6, 20, 33} { // overlays of base sequences
		if err := db.AppendPoints(id, randSeq(rng, 2, 1+rng.Intn(20)).Points); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.DeltaAdds == 0 || st.DeltaRemoved == 0 || st.DeltaOverlays == 0 {
		t.Fatalf("delta adds %d, removals %d, overlays %d: the test needs all three", st.DeltaAdds, st.DeltaRemoved, st.DeltaOverlays)
	}

	n := db.Len()
	queries := []*core.Sequence{
		randSeq(rng, 2, 1), randSeq(rng, 2, 12), randSeq(rng, 2, 60), // the last is longer than anything stored
		{Points: base[5].Points[1:9]}, {Points: base[15].Points},
	}
	for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
		for qi, q := range queries {
			scan := rankedScan(t, db, q, m)
			if len(scan) != n {
				t.Fatalf("scan sees %d sequences, Len is %d", len(scan), n)
			}
			for _, k := range []int{1, 10, n, n + 5} {
				for _, bound := range []float64{math.Inf(1), scan[n/2].Dist, 0} {
					want := slices.DeleteFunc(slices.Clone(scan), func(m core.MetricMatch) bool { return m.Dist > bound })
					want = want[:min(k, len(want))]
					live := core.NewKNNBound(k)
					live.Tighten(bound)
					got, err := knnBounded(context.Background(), db, q, k, live, m)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s query %d k %d bound %g: %d results, scan %d", m.Name(), qi, k, bound, len(got), len(want))
					}
					for i := range got {
						if got[i].SeqID != want[i].SeqID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("%s query %d k %d bound %g result %d: got {seq %d dist %v}, scan {seq %d dist %v}",
								m.Name(), qi, k, bound, i, got[i].SeqID, got[i].Dist, want[i].SeqID, want[i].Dist)
						}
					}
					if k <= len(want) && live.Load() != want[k-1].Dist {
						t.Fatalf("%s query %d k %d bound %g: the merge left the bound at %v, the k-th best is %v",
							m.Name(), qi, k, bound, live.Load(), want[k-1].Dist)
					}
				}
			}
		}
	}
}

// TestKNNSupersededBaseTwinNeverBoundsTheQuery: the base index still holds
// what the delta has removed or overlaid, and its pass refines it. A twin of
// the query there is at distance 0, nearer than every live sequence; were
// that distance offered to the query's pool — here of k = 1, so one offer
// fills it — the bound would drop to 0 and every live sequence be dismissed.
func TestKNNSupersededBaseTwinNeverBoundsTheQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, supersede := range []string{"remove", "append"} {
		db := newMem(t, 2)
		var base []*core.Sequence
		for i := 0; i < 20; i++ {
			s := randSeq(rng, 2, 12+rng.Intn(8))
			base = append(base, s)
			if _, err := db.Add(clonePoints(s)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Under DTW the query is the twin itself. Under D it is the twin and
		// a tail: the twin slides inside it at distance 0, while the version
		// an append leaves behind, the twin and another tail, does not.
		const twin = 7
		queries := map[string]*core.Sequence{
			"dtw": {Points: base[twin].Points},
			"d":   {Points: append(slices.Clone(base[twin].Points), randSeq(rng, 2, 5).Points...)},
		}
		var err error
		if supersede == "remove" {
			err = db.Remove(twin)
		} else {
			err = db.AppendPoints(twin, randSeq(rng, 2, 9).Points)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
			q := queries[m.Name()]
			scan := rankedScan(t, db, q, m)
			if scan[0].Dist == 0 {
				t.Fatalf("%s: a live sequence is at distance 0; the test needs the superseded twin to be the only one", supersede)
			}
			live := core.NewKNNBound(1)
			got, err := knnBounded(context.Background(), db, q, 1, live, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0].SeqID != scan[0].SeqID || got[0].Dist != scan[0].Dist {
				t.Fatalf("%s %s: nearest is %v, the scan says sequence %d at %v", supersede, m.Name(), got, scan[0].SeqID, scan[0].Dist)
			}
			if live.Load() != scan[0].Dist {
				t.Fatalf("%s %s: bound left at %v, the nearest live sequence is at %v", supersede, m.Name(), live.Load(), scan[0].Dist)
			}
		}
	}
}

// TestKNNHugeKReturnsEverySequence: k is whatever a request says. With a
// non-empty delta and tombstones, k past the live count — by 5, at 2⁴⁰
// (sizing a list by it is 2⁴⁶ bytes), at MaxInt (adding the delta's size to
// it wraps negative) — returns every live sequence, ranked.
func TestKNNHugeKReturnsEverySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := newMem(t, 2)
	for i := 0; i < 12; i++ {
		if _, err := db.Add(randSeq(rng, 2, 10+rng.Intn(10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.Add(randSeq(rng, 2, 10+rng.Intn(10))); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{2, 14} { // a base and a delta tombstone
		if err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.DeltaAdds == 0 || st.DeltaRemoved == 0 {
		t.Fatalf("delta adds %d, removals %d: the test needs both", st.DeltaAdds, st.DeltaRemoved)
	}
	n := db.Len()
	q := randSeq(rng, 2, 8)
	for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
		scan := rankedScan(t, db, q, m)
		for _, k := range []int{n + 5, 1 << 40, math.MaxInt} {
			for _, bound := range []*core.KNNBound{nil, core.NewKNNBound(k)} {
				got, err := knnBounded(context.Background(), db, q, k, bound, m)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("%s k %d: %d neighbors, %d sequences are live", m.Name(), k, len(got), n)
				}
				for i := range got {
					if got[i].SeqID != scan[i].SeqID || got[i].Dist != scan[i].Dist {
						t.Fatalf("%s k %d neighbor %d: got {seq %d dist %v}, scan {seq %d dist %v}",
							m.Name(), k, i, got[i].SeqID, got[i].Dist, scan[i].SeqID, scan[i].Dist)
					}
				}
				if !math.IsInf(bound.Load(), 1) {
					t.Fatalf("%s k %d: bound at %v with fewer than k sequences in existence", m.Name(), k, bound.Load())
				}
			}
		}
	}
}
