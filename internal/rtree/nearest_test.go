package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// neighbor is one entry a Nearest walk returned.
type neighbor struct {
	ref   Ref
	keySq float64
}

// columnar lays query boxes out the way Nearest.Reset reads them.
func columnar(qs []geom.Rect) (qlo, qhi []float64) {
	for _, q := range qs {
		qlo = append(qlo, q.L...)
		qhi = append(qhi, q.H...)
	}
	return qlo, qhi
}

// nearestK walks tr from the query boxes until k entries have come out or
// the walk is exhausted; an entry's key is what Head gave before its Pop.
func nearestK(t *testing.T, tr *Tree, qs []geom.Rect, k int) []neighbor {
	t.Helper()
	qlo, qhi := columnar(qs)
	var it Nearest
	it.Reset(tr, qlo, qhi)
	var out []neighbor
	for len(out) < k {
		keySq, ok := it.Head()
		if !ok {
			break
		}
		ref, entry, err := it.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if entry {
			out = append(out, neighbor{ref, keySq})
		}
	}
	return out
}

// TestNearestKeysMatchBruteForce walks whole trees: every entry comes out
// once, keys never decrease, and each key is bit for bit the smallest
// geom.MinDistSq from the entry's box to any of the query boxes.
func TestNearestKeysMatchBruteForce(t *testing.T) {
	for _, dim := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			tr := newMemTree(t, dim, 8)
			items := insertMany(t, tr, 400, int64(90+dim))
			rng := rand.New(rand.NewSource(int64(190 + dim)))
			for trial := 0; trial < 6; trial++ {
				qs := make([]geom.Rect, 1+trial%4)
				for i := range qs {
					qs[i] = randRect(rng, dim, 0.05)
				}
				got := nearestK(t, tr, qs, len(items)+1)
				if len(got) != len(items) {
					t.Fatalf("walk returned %d entries, tree holds %d", len(got), len(items))
				}
				seen := make(map[Ref]bool, len(got))
				for i, n := range got {
					if seen[n.ref] {
						t.Fatalf("entry %d returned twice", n.ref)
					}
					seen[n.ref] = true
					if i > 0 && n.keySq < got[i-1].keySq {
						t.Fatalf("key %g after %g", n.keySq, got[i-1].keySq)
					}
					want := items[n.ref].MinDistSq(qs[0])
					for _, q := range qs[1:] {
						want = min(want, items[n.ref].MinDistSq(q))
					}
					if n.keySq != want {
						t.Fatalf("entry %d: key %g, brute force %g", n.ref, n.keySq, want)
					}
				}
			}
		})
	}
}

// TestNearestOverflowedKeys: boxes so far from the query that the squared
// gap overflows have key +Inf and are still walked, in any order, after
// everything finite — an infinite key is not the end of the walk.
func TestNearestOverflowedKeys(t *testing.T) {
	tr := newMemTree(t, 2, 4)
	var want []Ref
	for i := 0; i < 20; i++ {
		c := 1e200
		if i%2 == 0 {
			c = float64(i)
		}
		if err := tr.Insert(geom.RectFromPoint(geom.Point{c, c}), Ref(i)); err != nil {
			t.Fatal(err)
		}
		want = append(want, Ref(i))
	}
	got := nearestK(t, tr, []geom.Rect{geom.RectFromPoint(geom.Point{0, 0})}, 100)
	var refs []Ref
	for i, n := range got {
		refs = append(refs, n.ref)
		if i > 0 && n.keySq < got[i-1].keySq {
			t.Fatalf("key %g after %g", n.keySq, got[i-1].keySq)
		}
	}
	slices.Sort(refs)
	if !slices.Equal(refs, want) {
		t.Fatalf("walk returned %v, want all of %v", refs, want)
	}
}

// TestNearestAllocs: a walk on a warmed iterator over cached nodes does
// not allocate.
func TestNearestAllocs(t *testing.T) {
	tr := newMemTree(t, 3, 16)
	insertMany(t, tr, 500, 5)
	rng := rand.New(rand.NewSource(6))
	qlo, qhi := columnar([]geom.Rect{randRect(rng, 3, 0.05), randRect(rng, 3, 0.05)})
	var it Nearest
	walk := func() {
		it.Reset(tr, qlo, qhi)
		for {
			if _, ok := it.Head(); !ok {
				return
			}
			if _, _, err := it.Pop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk()
	if n := testing.AllocsPerRun(20, walk); n != 0 {
		t.Errorf("warmed walk allocates %v times, want 0", n)
	}
}
