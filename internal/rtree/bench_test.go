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

func BenchmarkInsert(b *testing.B) {
	tr := benchTree(b, 0)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(randRect(rng, 3, 0.02), Ref(i)); err != nil {
			b.Fatal(err)
		}
	}
}

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
