package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

func bulkItems(rng *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, dim, 0.05), Ref: Ref(i)}
	}
	return items
}

func TestBulkLoadBasic(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	rng := rand.New(rand.NewSource(100))
	items := bulkItems(rng, 1000, 3)
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d; expected a deep tree with fanout 8", tr.Height())
	}
}

func TestBulkLoadSearchMatchesBruteForce(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	rng := rand.New(rand.NewSource(101))
	items := bulkItems(rng, 800, 3)
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	byRef := make(map[Ref]geom.Rect, len(items))
	for _, it := range items {
		byRef[it.Ref] = it.Rect
	}
	for trial := 0; trial < 40; trial++ {
		q := randRect(rng, 3, 0.3)
		want := bruteIntersect(byRef, q)
		got := collectIntersect(t, tr, q)
		if !refSlicesEqual(got, want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestBulkLoadEdgeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	// Sizes around node-capacity boundaries, including tiny ones.
	for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 100, 511} {
		tr := newMemTree(t, 2, 8)
		items := bulkItems(rng, n, 2)
		if err := tr.BulkLoad(items); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if n > 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

func TestBulkLoadRejectsNonEmptyTree(t *testing.T) {
	tr := newMemTree(t, 2, 8)
	tr.Insert(geom.MustRect(geom.Point{0, 0}, geom.Point{0.1, 0.1}), 1)
	if err := tr.BulkLoad(bulkItems(rand.New(rand.NewSource(1)), 5, 2)); err == nil {
		t.Error("BulkLoad on non-empty tree accepted")
	}
}

func TestBulkLoadRejectsBadItems(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	bad := []Item{{Rect: geom.MustRect(geom.Point{0}, geom.Point{1}), Ref: 1}}
	if err := tr.BulkLoad(bad); err == nil {
		t.Error("wrong-dim item accepted")
	}
	if err := tr.BulkLoad([]Item{{}}); err == nil {
		t.Error("empty rect accepted")
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	tr := newMemTree(t, 2, 8)
	rng := rand.New(rand.NewSource(103))
	items := bulkItems(rng, 300, 2)
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	// Inserts and deletes after a bulk load must keep the tree sound.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(randRect(rng, 2, 0.05), Ref(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := tr.Delete(items[i].Rect, items[i].Ref); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Len() != 300 {
		t.Errorf("Len = %d, want 300", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadPersistence(t *testing.T) {
	pg, err := pager.Open(pager.Options{PageSize: 4096, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	tr, err := New(Options{Dim: 3, Pager: pg, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(104))
	items := bulkItems(rng, 500, 3)
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(Options{Pager: pg, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 500 {
		t.Errorf("reopened Len = %d", tr2.Len())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadPacksTighterThanIncremental(t *testing.T) {
	// STR should need no more pages than incremental insertion for the
	// same items (it packs nodes full).
	rng := rand.New(rand.NewSource(105))
	items := bulkItems(rng, 600, 3)

	pgBulk, _ := pager.Open(pager.Options{PageSize: 4096})
	defer pgBulk.Close()
	bulk, _ := New(Options{Dim: 3, Pager: pgBulk, MaxEntries: 16})
	if err := bulk.BulkLoad(items); err != nil {
		t.Fatal(err)
	}

	pgInc, _ := pager.Open(pager.Options{PageSize: 4096})
	defer pgInc.Close()
	inc, _ := New(Options{Dim: 3, Pager: pgInc, MaxEntries: 16})
	for _, it := range items {
		if err := inc.Insert(it.Rect, it.Ref); err != nil {
			t.Fatal(err)
		}
	}
	if pgBulk.NumPages() > pgInc.NumPages() {
		t.Errorf("bulk used %d pages, incremental %d", pgBulk.NumPages(), pgInc.NumPages())
	}
}

func TestChunkBalanced(t *testing.T) {
	es := make([]entry, 17)
	out := chunkBalanced(es, 8, 3)
	var sizes []int
	total := 0
	for _, g := range out {
		sizes = append(sizes, len(g))
		total += len(g)
		if len(g) < 3 {
			t.Errorf("chunk of %d below minimum 3 (sizes %v)", len(g), sizes)
		}
	}
	if total != 17 {
		t.Errorf("chunks cover %d entries, want 17", total)
	}
	sort.Ints(sizes)
	if sizes[len(sizes)-1] > 8 {
		t.Errorf("chunk exceeds max: %v", sizes)
	}
}

func TestBulkLoadLeavesMatchesBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	for _, n := range []int{1, 7, 8, 9, 63, 64, 500} {
		items := bulkItems(rng, n, 3)

		ref := newMemTree(t, 3, 8)
		if err := ref.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		grouped := STRLeaves(items, 3, 8, 8/2)
		var was []geom.Rect
		for _, leaf := range grouped {
			for _, it := range leaf {
				was = append(was, it.Rect.Clone())
			}
		}
		tr := newMemTree(t, 3, 8)
		if err := tr.BulkLoadLeaves(grouped); err != nil {
			t.Fatalf("n=%d: BulkLoadLeaves: %v", n, err)
		}
		// The leaf entries alias the items' rects; packing only reads them.
		k := 0
		for _, leaf := range grouped {
			for _, it := range leaf {
				if !it.Rect.Equal(was[k]) {
					t.Fatalf("n=%d: BulkLoadLeaves changed item rect %d: %v, was %v", n, k, it.Rect, was[k])
				}
				k++
			}
		}
		if tr.Len() != ref.Len() || tr.Height() != ref.Height() {
			t.Fatalf("n=%d: shape %d/%d, want %d/%d", n, tr.Len(), tr.Height(), ref.Len(), ref.Height())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: invariants: %v", n, err)
		}
		byRef := make(map[Ref]geom.Rect, len(items))
		for _, it := range items {
			byRef[it.Ref] = it.Rect
		}
		for trial := 0; trial < 20; trial++ {
			q := randRect(rng, 3, 0.3)
			want := collectIntersect(t, ref, q)
			got := collectIntersect(t, tr, q)
			if !refSlicesEqual(got, want) {
				t.Fatalf("n=%d trial %d: got %d refs, want %d", n, trial, len(got), len(want))
			}
			brute := bruteIntersect(byRef, q)
			if !refSlicesEqual(got, brute) {
				t.Fatalf("n=%d trial %d: diverged from brute force", n, trial)
			}
		}
	}
}

func TestBulkLoadLeavesRejectsBadPages(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	items := bulkItems(rng, 20, 3)

	tr := newMemTree(t, 3, 8)
	if err := tr.BulkLoadLeaves([][]Item{items[:8], nil, items[8:16]}); err == nil {
		t.Error("empty leaf page accepted")
	}
	tr2 := newMemTree(t, 3, 8)
	if err := tr2.BulkLoadLeaves([][]Item{items[:9]}); err == nil {
		t.Error("over-capacity leaf page accepted")
	}
	tr3 := newMemTree(t, 3, 8)
	if err := tr3.Insert(items[0].Rect, items[0].Ref); err != nil {
		t.Fatal(err)
	}
	if err := tr3.BulkLoadLeaves([][]Item{items[1:8]}); err == nil {
		t.Error("bulk leaf load into a non-empty tree accepted")
	}
}

// TestSortByCenterOrdersAsSortSlice holds sortByCenter's key sort to the
// order sorting the entries themselves with sort.Slice gives — ties
// included, on runs with many equal centers — so a tree packed today
// groups its leaves exactly as one packed before the key sort did.
func TestSortByCenterOrdersAsSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(3000)
		want := make([]entry, n)
		for i := range want {
			lo := float64(rng.Intn(40))
			want[i] = entry{rect: geom.Rect{L: geom.Point{lo, lo}, H: geom.Point{lo + float64(rng.Intn(3)), lo}}, ref: Ref(i)}
		}
		got := append([]entry(nil), want...)
		d := trial % 2
		sort.Slice(want, func(i, j int) bool {
			return want[i].rect.L[d]+want[i].rect.H[d] < want[j].rect.L[d]+want[j].rect.H[d]
		})
		sortByCenter(got, make([]centerKey, n), d)
		for i := range want {
			if got[i].ref != want[i].ref {
				t.Fatalf("trial %d (%d entries, axis %d): position %d holds ref %d, sort.Slice puts %d there", trial, n, d, i, got[i].ref, want[i].ref)
			}
		}
	}
}
