package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

// hotpathTree builds an in-memory tree of n random small rectangles in
// the given dimension and returns it with the inserted items.
func hotpathTree(tb testing.TB, dim, n int, seed int64) (*Tree, []Item) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, dim, 0.05), Ref: Ref(i)}
	}
	return bulkTree(tb, dim, items), items
}

// bulkTree bulk-loads items into a fresh in-memory tree.
func bulkTree(tb testing.TB, dim int, items []Item) *Tree {
	tb.Helper()
	pg, err := pager.Open(pager.Options{PageSize: 4096, PoolPages: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pg.Close() })
	tr, err := New(Options{Dim: dim, Pager: pg})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestAppendWithinDistMatchesWithinDist checks the squared-space flat
// kernel against the seed visitor path: same accepted reference set, same
// DFS order, across dimensions, radii, and random queries — including
// after mutations that invalidate cached flat nodes.
func TestAppendWithinDistMatchesWithinDist(t *testing.T) {
	for _, dim := range []int{2, 3, 4, 8} {
		tr, items := hotpathTree(t, dim, 3000, int64(100+dim))
		rng := rand.New(rand.NewSource(int64(dim)))
		check := func() {
			for i := 0; i < 40; i++ {
				q := randRect(rng, dim, 0.1)
				eps := rng.Float64() * 0.4
				var want []Ref
				if err := tr.WithinDist(q, eps, func(it Item) bool {
					want = append(want, it.Ref)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				got, err := tr.AppendWithinDist(q, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("dim %d eps %g: flat kernel found %d refs, visitor %d", dim, eps, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("dim %d eps %g: ref %d: flat %v, visitor %v", dim, eps, j, got[j], want[j])
					}
				}
			}
		}
		check()
		// Mutate: delete a slice of items and insert fresh ones, then
		// re-verify — the flat cache must track every rewritten page.
		for i := 0; i < 200; i++ {
			if err := tr.Delete(items[i].Rect, items[i].Ref); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 150; i++ {
			if err := tr.Insert(randRect(rng, dim, 0.05), Ref(100000+i)); err != nil {
				t.Fatal(err)
			}
		}
		check()
	}
}

// minDistSqReference is the squared MinDist summed from the textbook
// three-case gap — which side of the entry's projection, if either, the
// query's lies on — in axis order: the predicate appendWithin evaluated
// before geom.GapSq became branch-free, kept as its reference.
func minDistSqReference(e, q geom.Rect) float64 {
	var sum float64
	for k := range e.L {
		var x float64
		switch {
		case e.H[k] < q.L[k]:
			x = q.L[k] - e.H[k]
		case q.H[k] < e.L[k]:
			x = e.L[k] - q.H[k]
		}
		sum += x * x
	}
	return sum
}

// gridRect draws a box whose corners sit on multiples of 1/8 in [0, 1] —
// so boxes touch, nest and coincide, a quarter of them have zero width on
// an axis, and a gap's square is exact and can equal ε² — scaled by scale.
func gridRect(rng *rand.Rand, dim int, scale float64) geom.Rect {
	lo, hi := make(geom.Point, dim), make(geom.Point, dim)
	for k := range lo {
		a, b := float64(rng.Intn(9))/8, float64(rng.Intn(9))/8
		if a > b {
			a, b = b, a
		}
		if rng.Intn(4) == 0 {
			b = a
		}
		lo[k], hi[k] = a*scale, b*scale
	}
	return geom.Rect{L: lo, H: hi}
}

// TestAppendWithinDistMatchesGapReference checks the node scan — each
// unrolled dimension and the generic loop — against a walk of the same
// tree with the three-case squared predicate: the same refs in the same
// order, on boxes that touch, nest, have zero width, tie with ε exactly,
// and sit at 1e200 scale where the squared gap overflows.
func TestAppendWithinDistMatchesGapReference(t *testing.T) {
	for _, dim := range []int{2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(300 + dim)))
		items := make([]Item, 2000)
		for i := range items {
			switch {
			case i%50 == 0:
				items[i] = Item{Rect: gridRect(rng, dim, 1e200), Ref: Ref(i)}
			case i%2 == 0:
				items[i] = Item{Rect: gridRect(rng, dim, 1), Ref: Ref(i)}
			default:
				items[i] = Item{Rect: randRect(rng, dim, 0.05), Ref: Ref(i)}
			}
		}
		tr := bulkTree(t, dim, items)
		found := 0
		for trial := 0; trial < 200; trial++ {
			q, eps := gridRect(rng, dim, 1), float64(rng.Intn(5))/8
			switch trial % 4 {
			case 1:
				q, eps = randRect(rng, dim, 0.1), rng.Float64()*0.4
			case 2:
				q, eps = gridRect(rng, dim, 1e200), 1e200*float64(rng.Intn(5))/8
			}
			eps2 := eps * eps
			var want []Ref
			_, err := tr.searchRec(tr.root,
				func(r geom.Rect) bool { return minDistSqReference(r, q) <= eps2 },
				func(it Item) bool { want = append(want, it.Ref); return true })
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.AppendWithinDist(q, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("dim %d query %v eps %g: node scan found %d refs, three-case reference %d (or another order)",
					dim, q, eps, len(got), len(want))
			}
			found += len(want)
		}
		if found == 0 || found == 200*len(items) {
			t.Fatalf("dim %d: the queries accepted %d refs of %d; the test separates nothing", dim, found, 200*len(items))
		}
	}
}

// TestAppendWithinDistReuse checks that a warmed tree serves repeated
// searches into a reused slice without allocating.
func TestAppendWithinDistReuse(t *testing.T) {
	for _, dim := range []int{3, 4} {
		tr, _ := hotpathTree(t, dim, 5000, 7)
		rng := rand.New(rand.NewSource(8))
		q := randRect(rng, dim, 0.1)
		out, err := tr.AppendWithinDist(q, 0.3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatalf("dim %d: query matched nothing; pick a wider radius", dim)
		}
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			out, err = tr.AppendWithinDist(q, 0.3, out[:0])
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("dim %d: warmed AppendWithinDist allocates %.1f times per run, want 0", dim, allocs)
		}
	}
}

// TestFlatCacheInvalidation specifically exercises the page-rewrite path:
// a ref must disappear from flat-kernel results immediately after Delete
// and reappear after re-insertion.
func TestFlatCacheInvalidation(t *testing.T) {
	tr, items := hotpathTree(t, 2, 500, 11)
	target := items[42]
	wide := geom.MustRect(geom.Point{0, 0}, geom.Point{1, 1})
	contains := func() bool {
		refs, err := tr.AppendWithinDist(wide, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			if r == target.Ref {
				return true
			}
		}
		return false
	}
	if !contains() {
		t.Fatal("target absent before delete")
	}
	if err := tr.Delete(target.Rect, target.Ref); err != nil {
		t.Fatal(err)
	}
	if contains() {
		t.Fatal("target still served from flat cache after delete")
	}
	if err := tr.Insert(target.Rect, target.Ref); err != nil {
		t.Fatal(err)
	}
	if !contains() {
		t.Fatal("target absent after re-insert")
	}
}

// BenchmarkWithinDistKernel compares the seed visitor search and the flat
// squared-space kernel on identical trees and queries. Sub-benchmark
// names are benchstat-friendly: path=visitor|flat / dim=D / n=N.
func BenchmarkWithinDistKernel(b *testing.B) {
	for _, dim := range []int{2, 4, 8, 16} {
		for _, n := range []int{2000, 20000} {
			tr, _ := hotpathTree(b, dim, n, int64(dim*n))
			rng := rand.New(rand.NewSource(9))
			queries := make([]geom.Rect, 64)
			for i := range queries {
				queries[i] = randRect(rng, dim, 0.1)
			}
			eps := 0.15
			b.Run(fmt.Sprintf("path=visitor/dim=%d/n=%d", dim, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cnt := 0
					err := tr.WithinDist(queries[i%len(queries)], eps, func(Item) bool { cnt++; return true })
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("path=flat/dim=%d/n=%d", dim, n), func(b *testing.B) {
				b.ReportAllocs()
				var out []Ref
				for i := 0; i < b.N; i++ {
					var err error
					out, err = tr.AppendWithinDist(queries[i%len(queries)], eps, out[:0])
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
