package txn

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// mergeByIDReference is mergeByID as the map-probing filter it replaced:
// every base entry the view's overlay or removed map holds is dropped, and
// what is left is merged with the delta by id.
func mergeByIDReference(base []core.Match, v *view, delta []core.Match) []core.Match {
	out := []core.Match{}
	for _, m := range base {
		_, dead := v.removed[m.SeqID]
		_, overlaid := v.overlay[m.SeqID]
		if !dead && !overlaid {
			out = append(out, m)
		}
	}
	out = append(out, delta...)
	slices.SortStableFunc(out, func(a, b core.Match) int { return int(a.SeqID) - int(b.SeqID) })
	return out
}

// TestMergeByIDMatchesMapFilter: over random states — overlays and
// removals of base and added ids, an id overlaid and removed both, drops
// at the first and the last base id, base answers holding the superseded
// twin of a delta entry — dropBase agrees with the maps and the drop-list
// merge returns the map-filtered reference, base itself when nothing is
// dropped or added.
func TestMergeByIDMatchesMapFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 5000; iter++ {
		baseNext := uint32(1 + rng.Intn(60))
		st := &state{baseNext: baseNext, adds: make([]*core.Segmented, rng.Intn(8))}
		last := baseNext + uint32(len(st.adds)) // one past the last id
		pick := func() uint32 {
			switch rng.Intn(6) {
			case 0:
				return 0
			case 1:
				return baseNext - 1
			}
			return uint32(rng.Intn(int(last)))
		}
		removed := map[uint32]bool{}
		for n := rng.Intn(6); n > 0; n-- {
			if id := pick(); !removed[id] {
				removed[id] = true
				st.removed = append(st.removed, id)
			}
		}
		for n := rng.Intn(6); n > 0; n-- {
			st.overlays = append(st.overlays, overlayEntry{id: pick(), g: &core.Segmented{}})
		}
		if st.deltaLen() == 0 {
			continue
		}
		v := buildView(st)
		if !slices.IsSorted(v.drop) || len(slices.Compact(slices.Clone(v.drop))) != len(v.drop) {
			t.Fatalf("drop list %v is not ascending without repeats", v.drop)
		}

		// A base answer: a random subset of base ids, each tagged Dist 1.
		var base []core.Match
		for id := uint32(0); id < baseNext; id++ {
			if rng.Intn(3) > 0 {
				base = append(base, core.Match{SeqID: id, Dist: 1})
			}
		}
		// A delta answer: a random subset of the visible delta, Dist 2; an
		// overlaid base id in it has its superseded twin in base.
		var delta []core.Match
		for _, id := range v.ids {
			if rng.Intn(3) > 0 {
				delta = append(delta, core.Match{SeqID: id, Dist: 2})
			}
		}
		if rng.Intn(4) == 0 {
			delta = nil
		}

		for id := uint32(0); id < baseNext; id++ {
			_, dead := v.removed[id]
			_, overlaid := v.overlay[id]
			if got := v.dropBase(id); got != (dead || overlaid) {
				t.Fatalf("dropBase(%d) = %v with removed %v, overlays %v", id, got, st.removed, st.overlays)
			}
		}
		got := mergeByID(base, v, delta)
		want := mergeByIDReference(base, v, delta)
		if !slices.EqualFunc(got, want, func(a, b core.Match) bool { return a.SeqID == b.SeqID && a.Dist == b.Dist }) {
			t.Fatalf("removed %v, overlays %v, base ids < %d: mergeByID = %v, want %v", st.removed, st.overlays, baseNext, got, want)
		}
		if got == nil {
			t.Fatal("mergeByID returned nil")
		}
		if len(delta) == 0 && len(base) > 0 && len(got) == len(base) && &got[0] != &base[0] {
			t.Fatal("nothing dropped or added, but the answer is a copy of base")
		}
	}
}
