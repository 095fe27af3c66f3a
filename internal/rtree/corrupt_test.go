package rtree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

// treeFile builds a file-backed tree of n random dim-d entries on pages of
// pageSize bytes, flushes and closes it, and returns the file's path. The
// tree is at least two levels high.
func treeFile(tb testing.TB, pageSize, dim, n int, seed int64) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "tree.db")
	pg, err := pager.Open(pager.Options{PageSize: pageSize, Path: path})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(Options{Dim: dim, Pager: pg})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := tr.Insert(randRect(rng, dim, 0.1), Ref(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		tb.Fatalf("height %d, want >= 2", tr.Height())
	}
	if err := tr.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// pointRootAtItself rewrites, in the tree file b, the root's first child
// pointer to the root's own page.
func pointRootAtItself(b []byte, pageSize, dim int) {
	root := binary.LittleEndian.Uint32(b[10:14])
	off := int(root)*pageSize + nodeHeaderSize + 2*dim*8
	binary.LittleEndian.PutUint64(b[off:], uint64(root))
}

// emptyRoot sets, in the tree file b, the root's entry count to zero.
func emptyRoot(b []byte, pageSize int) {
	root := binary.LittleEndian.Uint32(b[10:14])
	binary.LittleEndian.PutUint16(b[int(root)*pageSize+1:], 0)
}

// everywhere is a query box of the given dimension around every rectangle
// randRect makes.
func everywhere(dim int) geom.Rect {
	r := geom.Rect{L: make(geom.Point, dim), H: make(geom.Point, dim)}
	for k := range r.L {
		r.L[k], r.H[k] = -1, 2
	}
	return r
}

// TestCyclicChildRefused opens a tree file whose root's first child pointer
// names the root itself, as a corrupt index.db reattached by
// core.OpenDatabase would be. Every walk must end with an error. The
// range probe used to recurse until the stack overflowed — a fatal error
// no caller recovers from — and the best-first walk never ended.
func TestCyclicChildRefused(t *testing.T) {
	const pageSize, dim = 4096, 3
	path := treeFile(t, pageSize, dim, 400, 31)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pointRootAtItself(b, pageSize, dim)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	pg, err := pager.Open(pager.Options{PageSize: pageSize, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	tr, err := Open(Options{Pager: pg})
	if err != nil {
		t.Fatalf("Open: %v (the meta page is intact)", err)
	}
	q := everywhere(dim)

	// A sound tree's walk pops each node and entry once.
	var it Nearest
	it.Reset(tr, q.L, q.H)
	limit := pg.NumPages() + tr.Len()
	for pops := 0; ; pops++ {
		if _, ok := it.Head(); !ok {
			t.Fatal("Nearest walk ended without an error")
		}
		if pops > limit {
			t.Fatalf("Nearest walk still running after %d pops", pops)
		}
		if _, _, err := it.Pop(); err != nil {
			break
		}
	}
	if _, err := tr.AppendWithinDist(q, 1, nil); err == nil {
		t.Error("AppendWithinDist over a cyclic tree returned no error")
	}
	if err := tr.Scan(func(Item) bool { return true }); err == nil {
		t.Error("Scan over a cyclic tree returned no error")
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Error("CheckInvariants passed a cyclic tree")
	}
}

// FuzzTreePages opens arbitrary bytes as a tree file and runs every walk
// over them: Open, the range probe, a best-first walk to exhaustion, Scan,
// CheckInvariants, then an Insert and a Delete. Each may fail; none may
// panic or run without end. The seeds are a sound tree file of height >= 2
// on 256-byte pages, its cyclic-root twin, and one whose internal root is
// empty (Insert's subtree choice indexed its first entry).
func FuzzTreePages(f *testing.F) {
	const pageSize, dim = 256, 2
	b, err := os.ReadFile(treeFile(f, pageSize, dim, 40, 32))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	cyclic := bytes.Clone(b)
	pointRootAtItself(cyclic, pageSize, dim)
	f.Add(cyclic)
	empty := bytes.Clone(b)
	emptyRoot(empty, pageSize)
	f.Add(empty)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 || len(b)%pageSize != 0 || len(b) > 64*pageSize {
			return
		}
		pg, err := pager.Open(pager.Options{PageSize: pageSize, PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer pg.Close()
		for off := 0; off < len(b); off += pageSize {
			id, err := pg.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := pg.Write(id, b[off:off+pageSize]); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := Open(Options{Pager: pg})
		if err != nil {
			return
		}
		q := everywhere(tr.Dim())
		tr.AppendWithinDist(q, 0.5, nil)
		var it Nearest
		it.Reset(tr, q.L, q.H)
		for _, ok := it.Head(); ok; _, ok = it.Head() {
			if _, _, err := it.Pop(); err != nil {
				break
			}
		}
		tr.Scan(func(Item) bool { return true })
		tr.CheckInvariants()
		tr.Insert(q, 1<<40)
		tr.Delete(q, 1<<40)
	})
}
