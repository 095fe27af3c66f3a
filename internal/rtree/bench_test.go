package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

func benchTree(b *testing.B, maxEntries int) *Tree {
	b.Helper()
	pg, err := pager.Open(pager.Options{PageSize: 4096, PoolPages: 512})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pg.Close() })
	tr, err := New(Options{Dim: 3, Pager: pg, MaxEntries: maxEntries})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkInsert times one Insert into a packed 12 000-entry d = 3 tree
// (full leaf-parent nodes, as a checkpoint fold meets them), cycling a
// pool of 1024 boxes; the untimed Delete after each insert keeps the size,
// so ns/op does not depend on b.N.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := benchTree(b, 0)
	if err := tr.BulkLoad(bulkItemsBench(rng, 12000)); err != nil {
		b.Fatal(err)
	}
	pool := bulkItemsBench(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := pool[i%len(pool)]
		if err := tr.Insert(it.Rect, it.Ref+1<<32); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tr.Delete(it.Rect, it.Ref+1<<32); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkChooseSubtree times the leaf-parent (overlap) choice on a full
// leaf-parent node — M leaf MBRs of a packed 12 000-entry d = 3 tree, in
// the tree's order — cycling 1024 query boxes.
func BenchmarkChooseSubtree(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tr := benchTree(b, 0)
	if err := tr.BulkLoad(bulkItemsBench(rng, 12000)); err != nil {
		b.Fatal(err)
	}
	root, err := tr.readNode(tr.root, tr.height)
	if err != nil {
		b.Fatal(err)
	}
	n := &node{}
	for _, e := range root.entries {
		parent, err := tr.readNode(e.child, tr.height-1)
		if err != nil {
			b.Fatal(err)
		}
		n.entries = append(n.entries, parent.entries...)
	}
	if len(n.entries) < tr.maxEntries {
		b.Fatalf("%d leaf MBRs, want at least %d", len(n.entries), tr.maxEntries)
	}
	n.entries = n.entries[:tr.maxEntries]
	pool := bulkItemsBench(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chooseSink += tr.chooseSubtree(n, pool[i%len(pool)].Rect, true)
	}
}

var chooseSink int

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	items := bulkItemsBench(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := benchTree(b, 0)
		b.StartTimer()
		if err := tr.BulkLoad(items); err != nil {
			b.Fatal(err)
		}
	}
}

func bulkItemsBench(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 3, 0.02), Ref: Ref(i)}
	}
	return items
}

func BenchmarkWithinDist(b *testing.B) {
	tr := benchTree(b, 0)
	rng := rand.New(rand.NewSource(3))
	if err := tr.BulkLoad(bulkItemsBench(rng, 20000)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		q := randRect(rng, 3, 0.05)
		tr.WithinDist(q, 0.05, func(Item) bool {
			count++
			return true
		})
	}
	_ = count
}

// BenchmarkNearestNeighbors walks to the 10 entries nearest to a pair of
// query boxes, on one reused iterator.
func BenchmarkNearestNeighbors(b *testing.B) {
	tr := benchTree(b, 0)
	rng := rand.New(rand.NewSource(4))
	if err := tr.BulkLoad(bulkItemsBench(rng, 20000)); err != nil {
		b.Fatal(err)
	}
	var it Nearest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qlo, qhi := columnar([]geom.Rect{randRect(rng, 3, 0.01), randRect(rng, 3, 0.01)})
		it.Reset(tr, qlo, qhi)
		for found := 0; found < 10; {
			if _, ok := it.Head(); !ok {
				break
			}
			_, entry, err := it.Pop()
			if err != nil {
				b.Fatal(err)
			}
			if entry {
				found++
			}
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	items := bulkItemsBench(rng, 5000)
	tr := benchTree(b, 0)
	if err := tr.BulkLoad(items); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		if err := tr.Delete(it.Rect, it.Ref); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tr.Insert(it.Rect, it.Ref); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
