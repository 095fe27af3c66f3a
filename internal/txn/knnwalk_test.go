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

// TestKNNIndexWalkMatchesScan is the transaction layer's side of core's
// differential test: the base answers k' from its index walk, the delta is
// scored beside it, and the merge — with a non-empty delta, tombstones over
// base and delta sequences, appends overlaying base sequences, and twins
// that tie across the base/delta seam — equals the snapshot's exhaustive
// scan sorted by (Dist, SeqID) and cut at k, ids and distance bits, for
// every k and bound of the core test.
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
	for qi, q := range queries {
		scan, err := db.SequentialSearchMetric(q, math.MaxFloat64, core.MetricD{})
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(scan, func(a, b core.MetricMatch) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SeqID, b.SeqID))
		})
		if len(scan) != n {
			t.Fatalf("scan sees %d sequences, Len is %d", len(scan), n)
		}
		for _, k := range []int{1, 10, n, n + 5} {
			for _, bound := range []float64{math.Inf(1), scan[n/2].Dist, 0} {
				want := slices.DeleteFunc(slices.Clone(scan), func(m core.MetricMatch) bool { return m.Dist > bound })
				want = want[:min(k, len(want))]
				live := new(core.KNNBound)
				live.Tighten(bound)
				got, err := db.SearchKNNBoundedCtx(context.Background(), q, k, live)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d k %d bound %g: %d results, scan %d", qi, k, bound, len(got), len(want))
				}
				for i := range got {
					if got[i].SeqID != want[i].SeqID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("query %d k %d bound %g result %d: got {seq %d dist %v}, scan {seq %d dist %v}",
							qi, k, bound, i, got[i].SeqID, got[i].Dist, want[i].SeqID, want[i].Dist)
					}
				}
			}
		}
	}
}
