package pager

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func newMemPager(t *testing.T, pageSize, pool int) *Pager {
	t.Helper()
	p, err := Open(Options{PageSize: pageSize, PoolPages: pool})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func fill(p *Pager, id PageID, b byte) error {
	buf := make([]byte, p.PageSize())
	for i := range buf {
		buf[i] = b
	}
	return p.Write(id, buf)
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{PageSize: 32}); err == nil {
		t.Error("tiny page size accepted")
	}
	if _, err := Open(Options{PoolPages: -1}); err == nil {
		t.Error("negative pool accepted")
	}
}

func TestAllocReadWriteRoundTrip(t *testing.T) {
	p := newMemPager(t, 128, 8)
	id, err := p.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if id != 0 {
		t.Errorf("first page id = %d, want 0", id)
	}
	if err := fill(p, id, 0xAB); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, 128)
	if err := p.Read(id, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, b := range got {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, b)
		}
	}
}

func TestAllocZeroesRecycledPages(t *testing.T) {
	p := newMemPager(t, 128, 8)
	id, _ := p.Alloc()
	fill(p, id, 0xFF)
	if err := p.Free(id); err != nil {
		t.Fatalf("Free: %v", err)
	}
	id2, _ := p.Alloc()
	if id2 != id {
		t.Fatalf("freed page not recycled: got %d, want %d", id2, id)
	}
	buf := make([]byte, 128)
	if err := p.Read(id2, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 128)) {
		t.Error("recycled page not zeroed")
	}
}

func TestReadWriteBufferSizeChecked(t *testing.T) {
	p := newMemPager(t, 128, 8)
	id, _ := p.Alloc()
	if err := p.Read(id, make([]byte, 64)); err == nil {
		t.Error("short Read buffer accepted")
	}
	if err := p.Write(id, make([]byte, 256)); err == nil {
		t.Error("long Write buffer accepted")
	}
}

func TestPageOutOfRange(t *testing.T) {
	p := newMemPager(t, 128, 8)
	err := p.Read(5, make([]byte, 128))
	if !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("Read out of range = %v, want ErrPageOutOfRange", err)
	}
	if err := p.Free(5); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("Free out of range = %v", err)
	}
}

func TestEvictionWritesBackDirtyPages(t *testing.T) {
	p := newMemPager(t, 128, 2) // tiny pool forces eviction
	const n = 10
	ids := make([]PageID, n)
	for i := range ids {
		id, err := p.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		ids[i] = id
		if err := fill(p, id, byte(i+1)); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	// All pages must read back correctly even though most were evicted.
	buf := make([]byte, 128)
	for i, id := range ids {
		if err := p.Read(id, buf); err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if buf[0] != byte(i+1) {
			t.Errorf("page %d byte 0 = %d, want %d", id, buf[0], i+1)
		}
	}
	if st := p.Stats(); st.Evicted == 0 {
		t.Error("expected evictions with a 2-page pool")
	}
}

func TestStatsCountHitsAndReads(t *testing.T) {
	p := newMemPager(t, 128, 4)
	id, _ := p.Alloc()
	fill(p, id, 1)
	buf := make([]byte, 128)
	p.Read(id, buf)
	p.Read(id, buf)
	st := p.Stats()
	if st.Hits < 2 {
		t.Errorf("Hits = %d, want >= 2 (resident page)", st.Hits)
	}
	if st.Fetches < 3 {
		t.Errorf("Fetches = %d, want >= 3", st.Fetches)
	}
	p.ResetStats()
	if st := p.Stats(); st.Fetches != 0 || st.Reads != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
}

func TestHitRatioAndDiskAccesses(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Error("zero-fetch HitRatio should be 0")
	}
	s = Stats{Fetches: 10, Hits: 5, Reads: 3, Writes: 2}
	if s.HitRatio() != 0.5 {
		t.Errorf("HitRatio = %g", s.HitRatio())
	}
	if s.DiskAccesses() != 5 {
		t.Errorf("DiskAccesses = %d", s.DiskAccesses())
	}
}

func TestViewAndUpdate(t *testing.T) {
	p := newMemPager(t, 128, 4)
	id, _ := p.Alloc()
	if err := p.Update(id, func(data []byte) error {
		data[7] = 42
		return nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	var got byte
	if err := p.View(id, func(data []byte) error {
		got = data[7]
		return nil
	}); err != nil {
		t.Fatalf("View: %v", err)
	}
	if got != 42 {
		t.Errorf("byte = %d, want 42", got)
	}
	// An Update whose fn fails must not mark the page dirty or lose the error.
	wantErr := errors.New("boom")
	if err := p.Update(id, func([]byte) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("Update error = %v, want boom", err)
	}
}

func TestFileBackendPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := Open(Options{PageSize: 256, PoolPages: 4, Path: path})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		ids = append(ids, id)
		if err := fill(p, id, byte(0x10+i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2, err := Open(Options{PageSize: 256, PoolPages: 4, Path: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if got := p2.NumPages(); got != 6 {
		t.Errorf("NumPages after reopen = %d, want 6", got)
	}
	buf := make([]byte, 256)
	for i, id := range ids {
		if err := p2.Read(id, buf); err != nil {
			t.Fatalf("Read after reopen: %v", err)
		}
		if buf[0] != byte(0x10+i) {
			t.Errorf("page %d byte = %#x, want %#x", id, buf[0], 0x10+i)
		}
	}
}

func TestFileBackendRejectsCorruptSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	p, err := Open(Options{PageSize: 256, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	p.Alloc()
	p.Close()
	if _, err := Open(Options{PageSize: 100, Path: path}); err == nil {
		t.Error("mismatched page size silently accepted")
	}
}

func TestFreeListRoundTrip(t *testing.T) {
	p := newMemPager(t, 128, 8)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	p.Free(a)
	p.Free(b)
	got := p.FreePageIDs()
	if len(got) != 2 {
		t.Fatalf("FreePageIDs = %v", got)
	}
	p.SetFreePageIDs([]PageID{a})
	if got := p.FreePageIDs(); len(got) != 1 || got[0] != a {
		t.Errorf("SetFreePageIDs round trip = %v", got)
	}
}

func TestClosedPagerFails(t *testing.T) {
	p := newMemPager(t, 128, 8)
	id, _ := p.Alloc()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close should be nil, got %v", err)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrClosed) {
		t.Errorf("Alloc after close = %v", err)
	}
	if err := p.Read(id, make([]byte, 128)); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after close = %v", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after close = %v", err)
	}
}

func TestFlushPersistsWithoutClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.db")
	p, err := Open(Options{PageSize: 128, PoolPages: 4, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	id, _ := p.Alloc()
	fill(p, id, 0x77)
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := p.Stats()
	if st.Writes == 0 {
		t.Error("Flush produced no physical writes")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := newMemPager(t, 128, 8)
	const pages = 16
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 128)
			for i := 0; i < 200; i++ {
				id := ids[rng.Intn(pages)]
				if rng.Intn(2) == 0 {
					if err := p.Read(id, buf); err != nil {
						errs <- err
						return
					}
				} else {
					if err := p.Write(id, buf); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent op: %v", err)
	}
}

func TestPoolFullWhenAllPinned(t *testing.T) {
	// View pins a page for the duration of fn; with a pool of 1, fetching a
	// second page inside the callback must fail with ErrPoolFull, not
	// deadlock or evict the pinned page.
	p := newMemPager(t, 128, 1)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	err := p.View(a, func([]byte) error {
		return p.Read(b, make([]byte, 128))
	})
	if !errors.Is(err, ErrPoolFull) {
		t.Errorf("nested fetch with full pool = %v, want ErrPoolFull", err)
	}
}

func TestManyPagesStress(t *testing.T) {
	p := newMemPager(t, 256, 16)
	const n = 500
	for i := 0; i < n; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if err := p.Update(id, func(data []byte) error {
			copy(data, fmt.Sprintf("page-%d", id))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("page-%d", i)
		if err := p.View(PageID(i), func(data []byte) error {
			if string(data[:len(want)]) != want {
				return fmt.Errorf("page %d contents = %q", i, data[:len(want)])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
