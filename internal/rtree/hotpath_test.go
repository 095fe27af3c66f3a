package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

// hotpathTree builds an in-memory tree of n random small rectangles in
// the given dimension and returns it with the inserted items.
func hotpathTree(tb testing.TB, dim, n int, seed int64) (*Tree, []Item) {
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
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, dim, 0.05), Ref: Ref(i)}
	}
	if err := tr.BulkLoad(items); err != nil {
		tb.Fatal(err)
	}
	return tr, items
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
