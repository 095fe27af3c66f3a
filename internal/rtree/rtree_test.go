package rtree

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

func newMemTree(t *testing.T, dim int, maxEntries int) *Tree {
	t.Helper()
	pg, err := pager.Open(pager.Options{PageSize: 4096, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	tr, err := New(Options{Dim: dim, Pager: pg, MaxEntries: maxEntries})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func randRect(rng *rand.Rand, dim int, maxSide float64) geom.Rect {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for i := 0; i < dim; i++ {
		lo[i] = rng.Float64() * (1 - maxSide)
		hi[i] = lo[i] + rng.Float64()*maxSide
	}
	return geom.Rect{L: lo, H: hi}
}

func TestPackRefRoundTrip(t *testing.T) {
	seq, ord := uint32(123456), uint32(789)
	s, o := PackRef(seq, ord).Unpack()
	if s != seq || o != ord {
		t.Errorf("round trip = (%d,%d), want (%d,%d)", s, o, seq, ord)
	}
	s, o = PackRef(0, 0).Unpack()
	if s != 0 || o != 0 {
		t.Errorf("zero round trip = (%d,%d)", s, o)
	}
	s, o = PackRef(^uint32(0), ^uint32(0)).Unpack()
	if s != ^uint32(0) || o != ^uint32(0) {
		t.Errorf("max round trip = (%d,%d)", s, o)
	}
}

func TestNewValidation(t *testing.T) {
	pg, _ := pager.Open(pager.Options{PageSize: 4096})
	defer pg.Close()
	if _, err := New(Options{Dim: 0, Pager: pg}); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := New(Options{Dim: 3, Pager: nil}); err == nil {
		t.Error("nil pager accepted")
	}
	if _, err := New(Options{Dim: 3, Pager: pg, MaxEntries: 10000}); err == nil {
		t.Error("oversized MaxEntries accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newMemTree(t, 3, 0)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	found := 0
	tr.Intersect(geom.MustRect(geom.Point{0, 0, 0}, geom.Point{1, 1, 1}), func(Item) bool {
		found++
		return true
	})
	if found != 0 {
		t.Errorf("found %d items in empty tree", found)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestInsertAndIntersect(t *testing.T) {
	tr := newMemTree(t, 2, 0)
	a := geom.MustRect(geom.Point{0.1, 0.1}, geom.Point{0.2, 0.2})
	b := geom.MustRect(geom.Point{0.7, 0.7}, geom.Point{0.9, 0.9})
	if err := tr.Insert(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(b, 2); err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	tr.Intersect(geom.MustRect(geom.Point{0, 0}, geom.Point{0.5, 0.5}), func(it Item) bool {
		refs = append(refs, it.Ref)
		return true
	})
	if len(refs) != 1 || refs[0] != 1 {
		t.Errorf("intersect refs = %v, want [1]", refs)
	}
}

func TestInsertRejectsWrongDim(t *testing.T) {
	tr := newMemTree(t, 3, 0)
	if err := tr.Insert(geom.MustRect(geom.Point{0}, geom.Point{1}), 1); err == nil {
		t.Error("wrong-dim insert accepted")
	}
	if err := tr.Insert(geom.Rect{}, 1); err == nil {
		t.Error("empty rect insert accepted")
	}
}

// insertMany inserts n random rects and returns them keyed by ref.
func insertMany(t *testing.T, tr *Tree, n int, seed int64) map[Ref]geom.Rect {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make(map[Ref]geom.Rect, n)
	for i := 0; i < n; i++ {
		r := randRect(rng, tr.Dim(), 0.1)
		ref := Ref(i)
		items[ref] = r
		if err := tr.Insert(r, ref); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return items
}

// bruteIntersect returns refs of items intersecting q, sorted.
func bruteIntersect(items map[Ref]geom.Rect, q geom.Rect) []Ref {
	var out []Ref
	for ref, r := range items {
		if r.Intersects(q) {
			out = append(out, ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collectIntersect(t *testing.T, tr *Tree, q geom.Rect) []Ref {
	t.Helper()
	var out []Ref
	if err := tr.Intersect(q, func(it Item) bool {
		out = append(out, it.Ref)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refSlicesEqual(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIntersectMatchesBruteForce(t *testing.T) {
	tr := newMemTree(t, 3, 8) // small fanout forces deep trees and splits
	items := insertMany(t, tr, 500, 1)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after inserts: %v", err)
	}
	if tr.Height() < 3 {
		t.Errorf("expected height >= 3 with fanout 8 and 500 items, got %d", tr.Height())
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		q := randRect(rng, 3, 0.3)
		want := bruteIntersect(items, q)
		got := collectIntersect(t, tr, q)
		if !refSlicesEqual(got, want) {
			t.Fatalf("trial %d: got %d refs, want %d refs", trial, len(got), len(want))
		}
	}
}

func TestWithinDistMatchesBruteForce(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	items := insertMany(t, tr, 400, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		q := randRect(rng, 3, 0.2)
		eps := rng.Float64() * 0.3
		var want []Ref
		for ref, r := range items {
			if r.MinDist(q) <= eps {
				want = append(want, ref)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []Ref
		if err := tr.WithinDist(q, eps, func(it Item) bool {
			got = append(got, it.Ref)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !refSlicesEqual(got, want) {
			t.Fatalf("trial %d (eps=%g): got %d, want %d", trial, eps, len(got), len(want))
		}
	}
}

func TestScanVisitsAll(t *testing.T) {
	tr := newMemTree(t, 2, 6)
	items := insertMany(t, tr, 200, 5)
	seen := make(map[Ref]bool)
	tr.Scan(func(it Item) bool {
		if seen[it.Ref] {
			t.Errorf("ref %d visited twice", it.Ref)
		}
		seen[it.Ref] = true
		if !items[it.Ref].Equal(it.Rect) {
			t.Errorf("ref %d rect mismatch", it.Ref)
		}
		return true
	})
	if len(seen) != len(items) {
		t.Errorf("Scan saw %d items, want %d", len(seen), len(items))
	}
}

func TestEarlyStop(t *testing.T) {
	tr := newMemTree(t, 2, 6)
	insertMany(t, tr, 100, 6)
	visits := 0
	tr.Scan(func(Item) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Errorf("early stop visited %d, want 5", visits)
	}
}

func TestNearestNeighbors(t *testing.T) {
	tr := newMemTree(t, 2, 8)
	items := insertMany(t, tr, 300, 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		q := geom.RectFromPoint(geom.Point{rng.Float64(), rng.Float64()})
		const k = 10
		got := nearestK(t, tr, []geom.Rect{q}, k)
		if len(got) != k {
			t.Fatalf("got %d neighbors, want %d", len(got), k)
		}
		// The k nearest, in order, are the k smallest brute-force distances.
		var dists []float64
		for _, r := range items {
			dists = append(dists, r.MinDistSq(q))
		}
		sort.Float64s(dists)
		for i, n := range got {
			if n.keySq != dists[i] {
				t.Fatalf("neighbor %d at squared distance %g, brute force %g", i, n.keySq, dists[i])
			}
		}
	}
	if got := nearestK(t, tr, []geom.Rect{geom.RectFromPoint(geom.Point{0, 0})}, len(items)+5); len(got) != len(items) {
		t.Errorf("walk to exhaustion returned %d entries, tree holds %d", len(got), len(items))
	}
	if got := nearestK(t, newMemTree(t, 2, 8), []geom.Rect{geom.RectFromPoint(geom.Point{0, 0})}, 3); len(got) != 0 {
		t.Errorf("empty tree returned %d entries", len(got))
	}
}

func TestDelete(t *testing.T) {
	tr := newMemTree(t, 2, 6)
	items := insertMany(t, tr, 250, 9)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete half the items, verifying invariants and searchability.
	refs := make([]Ref, 0, len(items))
	for ref := range items {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	for _, ref := range refs[:125] {
		if err := tr.Delete(items[ref], ref); err != nil {
			t.Fatalf("delete %d: %v", ref, err)
		}
		delete(items, ref)
	}
	if tr.Len() != 125 {
		t.Errorf("Len after deletes = %d, want 125", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after deletes: %v", err)
	}
	q := geom.MustRect(geom.Point{0, 0}, geom.Point{1, 1})
	got := collectIntersect(t, tr, q)
	want := bruteIntersect(items, q)
	if !refSlicesEqual(got, want) {
		t.Fatalf("post-delete search: got %d, want %d", len(got), len(want))
	}
}

func TestDeleteAll(t *testing.T) {
	tr := newMemTree(t, 2, 5)
	items := insertMany(t, tr, 100, 10)
	for ref, r := range items {
		if err := tr.Delete(r, ref); err != nil {
			t.Fatalf("delete %d: %v", ref, err)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("Height = %d after deleting all, want 1", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNotFound(t *testing.T) {
	tr := newMemTree(t, 2, 0)
	r := geom.MustRect(geom.Point{0.1, 0.1}, geom.Point{0.2, 0.2})
	tr.Insert(r, 1)
	if err := tr.Delete(r, 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("wrong-ref delete = %v, want ErrNotFound", err)
	}
	other := geom.MustRect(geom.Point{0.5, 0.5}, geom.Point{0.6, 0.6})
	if err := tr.Delete(other, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("wrong-rect delete = %v, want ErrNotFound", err)
	}
	if tr.Len() != 1 {
		t.Errorf("failed deletes changed Len to %d", tr.Len())
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	rng := rand.New(rand.NewSource(11))
	live := make(map[Ref]geom.Rect)
	next := Ref(0)
	for step := 0; step < 1200; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			r := randRect(rng, 3, 0.15)
			if err := tr.Insert(r, next); err != nil {
				t.Fatal(err)
			}
			live[next] = r
			next++
		} else {
			// Delete a random live item.
			var victim Ref
			k := rng.Intn(len(live))
			for ref := range live {
				if k == 0 {
					victim = ref
					break
				}
				k--
			}
			if err := tr.Delete(live[victim], victim); err != nil {
				t.Fatalf("delete %d: %v", victim, err)
			}
			delete(live, victim)
		}
		if step%200 == 199 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tr.Len() != len(live) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(live))
	}
	q := randRect(rng, 3, 0.4)
	if got, want := collectIntersect(t, tr, q), bruteIntersect(live, q); !refSlicesEqual(got, want) {
		t.Errorf("final search mismatch: %d vs %d", len(got), len(want))
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	pg, err := pager.Open(pager.Options{PageSize: 4096, PoolPages: 64, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{Dim: 3, Pager: pg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	items := make(map[Ref]geom.Rect)
	for i := 0; i < 300; i++ {
		r := randRect(rng, 3, 0.1)
		items[Ref(i)] = r
		if err := tr.Insert(r, Ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg2, err := pager.Open(pager.Options{PageSize: 4096, PoolPages: 64, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	tr2, err := Open(Options{Pager: pg2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Len() != 300 || tr2.Dim() != 3 {
		t.Errorf("reopened tree Len=%d Dim=%d", tr2.Len(), tr2.Dim())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reopen: %v", err)
	}
	q := randRect(rng, 3, 0.4)
	var got []Ref
	tr2.Intersect(q, func(it Item) bool { got = append(got, it.Ref); return true })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if want := bruteIntersect(items, q); !refSlicesEqual(got, want) {
		t.Errorf("post-reopen search mismatch: %d vs %d", len(got), len(want))
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	pg, _ := pager.Open(pager.Options{PageSize: 4096})
	defer pg.Close()
	pg.Alloc() // page 0 with zero bytes, not a valid meta page
	if _, err := Open(Options{Pager: pg}); !errors.Is(err, ErrBadMeta) {
		t.Errorf("Open on garbage = %v, want ErrBadMeta", err)
	}
}

func TestDuplicateRectsDistinctRefs(t *testing.T) {
	tr := newMemTree(t, 2, 5)
	r := geom.MustRect(geom.Point{0.4, 0.4}, geom.Point{0.6, 0.6})
	for i := 0; i < 50; i++ {
		if err := tr.Insert(r, Ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := collectIntersect(t, tr, r)
	if len(got) != 50 {
		t.Fatalf("found %d duplicates, want 50", len(got))
	}
	if err := tr.Delete(r, 25); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 49 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	tr := newMemTree(t, 2, 0)
	b, err := tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsEmpty() {
		t.Errorf("empty tree Bounds = %v", b)
	}
	tr.Insert(geom.MustRect(geom.Point{0.1, 0.2}, geom.Point{0.3, 0.4}), 1)
	tr.Insert(geom.MustRect(geom.Point{0.5, 0.6}, geom.Point{0.7, 0.8}), 2)
	b, _ = tr.Bounds()
	want := geom.MustRect(geom.Point{0.1, 0.2}, geom.Point{0.7, 0.8})
	if !b.Equal(want) {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
}

func TestStatsShowBufferedSearches(t *testing.T) {
	pg, err := pager.Open(pager.Options{PageSize: 4096, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	tr, err := New(Options{Dim: 3, Pager: pg})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		tr.Insert(randRect(rng, 3, 0.05), Ref(i))
	}
	pg.ResetStats()
	q := randRect(rng, 3, 0.1)
	tr.WithinDist(q, 0.1, func(Item) bool { return true })
	st := pg.Stats()
	if st.Fetches == 0 {
		t.Error("search made no page fetches")
	}
	// All pages fit in the pool, so a search after the build is all hits.
	if st.Reads != 0 {
		t.Errorf("search caused %d physical reads with everything resident", st.Reads)
	}
}

// TestWithinDistZeroEqualsIntersect: Dmbr(a,b) == 0 exactly when the
// rectangles intersect, so a zero-radius WithinDist must return the same
// set as Intersect.
func TestWithinDistZeroEqualsIntersect(t *testing.T) {
	tr := newMemTree(t, 3, 8)
	insertMany(t, tr, 300, 77)
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 30; trial++ {
		q := randRect(rng, 3, 0.2)
		a := collectIntersect(t, tr, q)
		var b []Ref
		if err := tr.WithinDist(q, 0, func(it Item) bool {
			b = append(b, it.Ref)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if !refSlicesEqual(a, b) {
			t.Fatalf("trial %d: intersect %d vs withindist(0) %d", trial, len(a), len(b))
		}
	}
}

// TestNearestNeighborsConsistentWithWithinDist: the k-th neighbor's
// distance bounds the WithinDist result count from both sides.
func TestNearestNeighborsConsistentWithWithinDist(t *testing.T) {
	tr := newMemTree(t, 2, 8)
	insertMany(t, tr, 200, 79)
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 20; trial++ {
		q := geom.RectFromPoint(geom.Point{rng.Float64(), rng.Float64()})
		nn := nearestK(t, tr, []geom.Rect{q}, 5)
		radius := math.Sqrt(nn[len(nn)-1].keySq)
		count := 0
		if err := tr.WithinDist(q, radius, func(Item) bool {
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if count < len(nn) {
			t.Fatalf("trial %d: WithinDist(%g) found %d < k=%d", trial, radius, count, len(nn))
		}
	}
}
