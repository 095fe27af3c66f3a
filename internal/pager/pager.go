// Package pager implements a fixed-size-page storage manager with an LRU
// buffer pool. It is the disk substrate beneath the R*-tree index: the
// paper's partitioning cost function (MCOST) is defined in terms of "the
// average number of disk accesses (DA)", and this package is what makes
// that quantity measurable — every physical page read and write is counted.
//
// A Pager can be backed by a file on disk or run fully in memory (for tests
// and benchmarks that should not touch the filesystem). Pages are addressed
// by a dense PageID starting at 0; page 0 is conventionally the caller's
// metadata page. Freed pages are recycled through an in-memory free list
// that the caller is expected to persist in its metadata if it needs frees
// to survive reopen (the R*-tree does).
package pager

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// PageID identifies a page within a Pager. IDs are dense and start at 0.
type PageID uint32

// InvalidPage is the sentinel "no page" value.
const InvalidPage PageID = ^PageID(0)

// DefaultPageSize is the page size used when Options.PageSize is zero.
// 4 KiB matches common filesystem block sizes and gives the R*-tree a
// realistic fanout for 3-dimensional MBR entries.
const DefaultPageSize = 4096

// Stats counts physical and logical page accesses since the last Reset.
// Logical accesses (Fetches) that hit the buffer pool do not touch the
// backing store; Reads and Writes are physical transfers.
type Stats struct {
	Fetches uint64 // logical page requests
	Hits    uint64 // requests satisfied by the buffer pool
	Reads   uint64 // physical page reads from the backing store
	Writes  uint64 // physical page writes to the backing store
	Allocs  uint64 // pages allocated
	Frees   uint64 // pages freed
	Evicted uint64 // frames evicted from the buffer pool
}

// HitRatio returns the fraction of fetches served from the pool.
func (s Stats) HitRatio() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Fetches)
}

// DiskAccesses returns physical reads + writes — the paper's "DA".
func (s Stats) DiskAccesses() uint64 { return s.Reads + s.Writes }

// Options configures a Pager.
type Options struct {
	// PageSize is the size of every page in bytes. 0 means DefaultPageSize.
	// Must be at least 64.
	PageSize int
	// PoolPages is the buffer-pool capacity in pages. 0 means 256.
	PoolPages int
	// Path is the backing file. Empty means an in-memory store.
	Path string
	// WAL enables write-ahead logging (requires Path): Begin/Commit bound
	// atomic multi-page transactions, and Open replays any committed but
	// unapplied transactions left by a crash. The log lives at Path+".wal".
	WAL bool
}

var (
	// ErrPageOutOfRange is returned when a PageID does not exist.
	ErrPageOutOfRange = errors.New("pager: page id out of range")
	// ErrClosed is returned by operations on a closed Pager.
	ErrClosed = errors.New("pager: closed")
	// ErrPoolFull is returned when every frame in the pool is pinned and a
	// new page must be brought in.
	ErrPoolFull = errors.New("pager: buffer pool exhausted (all pages pinned)")
)

// backend abstracts the physical store (file or memory).
type backend interface {
	readPage(id PageID, buf []byte) error
	writePage(id PageID, buf []byte) error
	grow(n int) error // ensure capacity for n pages
	sync() error
	close() error
}

// frame is one buffer-pool slot.
type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	// Links within the LRU list of unpinned frames.
	prev, next *frame
}

// Pager is a page store with an LRU buffer pool. All methods are safe for
// concurrent use.
type Pager struct {
	mu       sync.Mutex
	pageSize int
	pool     int
	be       backend
	frames   map[PageID]*frame
	lru      lruList // unpinned frames, the eviction order
	nPages   PageID
	freeList []PageID
	stats    Stats
	closed   bool

	// Write-ahead logging state (nil log when WAL is disabled).
	log      *wal
	inTxn    bool
	txnPages map[PageID]bool // pages dirtied by the open transaction
	// crashAfterWALSync makes Commit stop right after the log fsync —
	// fault injection for recovery tests.
	crashAfterWALSync bool
}

// Open creates or opens a pager. If opts.Path exists, its page count is
// derived from the file size (which must be a multiple of the page size).
func Open(opts Options) (*Pager, error) {
	ps := opts.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if ps < 64 {
		return nil, fmt.Errorf("pager: page size %d too small (min 64)", ps)
	}
	pool := opts.PoolPages
	if pool == 0 {
		pool = 256
	}
	if pool < 1 {
		return nil, fmt.Errorf("pager: pool must hold at least 1 page, got %d", pool)
	}
	p := &Pager{
		pageSize: ps,
		pool:     pool,
		frames:   make(map[PageID]*frame),
	}
	if opts.Path == "" {
		if opts.WAL {
			return nil, errors.New("pager: WAL requires a backing file path")
		}
		p.be = &memBackend{pageSize: ps}
		return p, nil
	}
	f, err := os.OpenFile(opts.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", opts.Path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: stat %s: %w", opts.Path, err)
	}
	if fi.Size()%int64(ps) != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s size %d not a multiple of page size %d", opts.Path, fi.Size(), ps)
	}
	p.be = &fileBackend{f: f, pageSize: ps}
	p.nPages = PageID(fi.Size() / int64(ps))
	if opts.WAL {
		// Redo any committed-but-unapplied transactions, then start with
		// an empty log.
		walPath := opts.Path + ".wal"
		if _, err := recoverWAL(walPath, ps, p.be, &p.nPages); err != nil {
			f.Close()
			return nil, err
		}
		// Replay may have grown the file.
		if fi2, err := f.Stat(); err == nil {
			p.nPages = PageID(fi2.Size() / int64(ps))
		}
		log, err := openWAL(walPath, ps)
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := log.reset(); err != nil {
			log.close()
			f.Close()
			return nil, err
		}
		p.log = log
	}
	return p, nil
}

// Begin starts a transaction: subsequent writes are applied atomically by
// Commit. Without WAL it is a no-op. Transactions do not nest.
func (p *Pager) Begin() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.log == nil {
		return nil
	}
	if p.inTxn {
		return ErrTxnActive
	}
	p.inTxn = true
	p.txnPages = make(map[PageID]bool)
	return nil
}

// Commit makes the open transaction durable: its pages are appended to
// the log, fsynced, applied to the main file, fsynced, and the log is
// truncated. Without WAL it is a no-op.
func (p *Pager) Commit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.log == nil {
		return nil
	}
	if !p.inTxn {
		return ErrNoTxn
	}
	images := make(map[PageID][]byte, len(p.txnPages))
	for id := range p.txnPages {
		fr, ok := p.frames[id]
		if !ok {
			return fmt.Errorf("pager: txn page %d evicted (no-steal violated)", id)
		}
		images[id] = fr.data
	}
	if len(images) > 0 {
		if err := p.log.append(images); err != nil {
			return err
		}
		if p.crashAfterWALSync {
			return errSimulatedCrash
		}
		for id := range images {
			if err := p.physWrite(p.frames[id]); err != nil {
				return err
			}
		}
		if err := p.be.sync(); err != nil {
			return err
		}
		if err := p.log.reset(); err != nil {
			return err
		}
	}
	p.inTxn = false
	p.txnPages = nil
	return nil
}

// Rollback abandons the open transaction: its dirty pages are dropped
// from the pool (the main file still holds the pre-transaction images, by
// the no-steal rule). Pages allocated inside the transaction become
// unreferenced slack in the file; callers' metadata rolls back with the
// transaction, so nothing dangles. Without WAL it is a no-op.
func (p *Pager) Rollback() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.log == nil {
		return nil
	}
	if !p.inTxn {
		return ErrNoTxn
	}
	for id := range p.txnPages {
		if fr, ok := p.frames[id]; ok {
			if fr.pins > 0 {
				return fmt.Errorf("pager: rolling back pinned page %d", id)
			}
			p.lru.unlink(fr)
			delete(p.frames, id)
		}
	}
	p.inTxn = false
	p.txnPages = nil
	return nil
}

// InTxn reports whether a transaction is open.
func (p *Pager) InTxn() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inTxn
}

// FailCommitAfterWALSync arms (or disarms) fault injection: the next
// Commit will stop right after the log reaches durability, simulating a
// crash before the main file is updated. For recovery tests only.
func (p *Pager) FailCommitAfterWALSync(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashAfterWALSync = v
}

// IsSimulatedCrash reports whether err came from fault injection.
func IsSimulatedCrash(err error) bool { return errors.Is(err, errSimulatedCrash) }

// PageSize returns the configured page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages returns the number of allocated pages (including freed ones
// still occupying slots in the backing store).
func (p *Pager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.nPages)
}

// Stats returns a snapshot of the access counters.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the access counters.
func (p *Pager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Alloc allocates a new page (recycling a freed one if available) and
// returns its id. The page contents are zeroed.
func (p *Pager) Alloc() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrClosed
	}
	p.stats.Allocs++
	var id PageID
	if n := len(p.freeList); n > 0 {
		id = p.freeList[n-1]
		p.freeList = p.freeList[:n-1]
	} else {
		id = p.nPages
		p.nPages++
		if err := p.be.grow(int(p.nPages)); err != nil {
			p.nPages--
			return InvalidPage, err
		}
	}
	// Materialize a zeroed frame so the caller can write immediately.
	fr, err := p.frameFor(id, false)
	if err != nil {
		return InvalidPage, err
	}
	for i := range fr.data {
		fr.data[i] = 0
	}
	p.markDirty(fr)
	p.unpin(fr)
	return id, nil
}

// Free returns a page to the free list. The caller must not use the id
// again until it is re-allocated.
func (p *Pager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if id >= p.nPages {
		return fmt.Errorf("%w: %d (have %d)", ErrPageOutOfRange, id, p.nPages)
	}
	if fr, ok := p.frames[id]; ok {
		if fr.pins > 0 {
			return fmt.Errorf("pager: freeing pinned page %d", id)
		}
		p.lru.unlink(fr)
		delete(p.frames, id)
	}
	p.stats.Frees++
	p.freeList = append(p.freeList, id)
	return nil
}

// FreePageIDs returns a copy of the current free list (for callers that
// persist it in their metadata page).
func (p *Pager) FreePageIDs() []PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PageID, len(p.freeList))
	copy(out, p.freeList)
	return out
}

// SetFreePageIDs replaces the free list, e.g. after reopening a file whose
// metadata recorded it.
func (p *Pager) SetFreePageIDs(ids []PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.freeList = append(p.freeList[:0], ids...)
}

// Read copies the contents of page id into buf (which must be exactly one
// page long) through the buffer pool.
func (p *Pager) Read(id PageID, buf []byte) error {
	if len(buf) != p.pageSize {
		return fmt.Errorf("pager: Read buffer is %d bytes, want %d", len(buf), p.pageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	fr, err := p.frameFor(id, true)
	if err != nil {
		return err
	}
	copy(buf, fr.data)
	p.unpin(fr)
	return nil
}

// Write replaces the contents of page id with buf (exactly one page) and
// marks the page dirty; the physical write happens on eviction or Flush.
func (p *Pager) Write(id PageID, buf []byte) error {
	if len(buf) != p.pageSize {
		return fmt.Errorf("pager: Write buffer is %d bytes, want %d", len(buf), p.pageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	fr, err := p.frameFor(id, false)
	if err != nil {
		return err
	}
	copy(fr.data, buf)
	p.markDirty(fr)
	p.unpin(fr)
	return nil
}

// View calls fn with a read-only view of the page's in-pool bytes. The
// slice is only valid during fn; fn must not modify or retain it. View
// avoids the copy that Read makes and is the hot path for index search.
func (p *Pager) View(id PageID, fn func(data []byte) error) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	fr, err := p.frameFor(id, true)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()
	// The frame is pinned, so it cannot be evicted while fn runs.
	err = fn(fr.data)
	p.mu.Lock()
	p.unpin(fr)
	p.mu.Unlock()
	return err
}

// Update calls fn with a writable view of the page's in-pool bytes and
// marks the page dirty if fn returns nil.
func (p *Pager) Update(id PageID, fn func(data []byte) error) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	fr, err := p.frameFor(id, true)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()
	err = fn(fr.data)
	p.mu.Lock()
	if err == nil {
		p.markDirty(fr)
	}
	p.unpin(fr)
	p.mu.Unlock()
	return err
}

// Flush writes all dirty pages to the backing store and syncs it.
func (p *Pager) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.inTxn {
		return ErrTxnActive
	}
	for _, fr := range p.frames {
		if fr.dirty {
			if err := p.physWrite(fr); err != nil {
				return err
			}
		}
	}
	return p.be.sync()
}

// Close flushes and releases the pager. Further operations fail with
// ErrClosed. Close is idempotent.
func (p *Pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if p.inTxn {
		p.mu.Unlock()
		return ErrTxnActive
	}
	for _, fr := range p.frames {
		if fr.pins > 0 {
			p.mu.Unlock()
			return fmt.Errorf("pager: closing with pinned page %d", fr.id)
		}
		if fr.dirty {
			if err := p.physWrite(fr); err != nil {
				p.mu.Unlock()
				return err
			}
		}
	}
	p.closed = true
	be := p.be
	log := p.log
	p.frames = nil
	p.lru = lruList{}
	p.mu.Unlock()
	if log != nil {
		if err := log.close(); err != nil {
			be.close()
			return err
		}
	}
	if err := be.sync(); err != nil {
		be.close()
		return err
	}
	return be.close()
}

// frameFor returns a pinned frame for page id, loading it from the backing
// store when load is true and the page is not resident. Caller holds p.mu.
func (p *Pager) frameFor(id PageID, load bool) (*frame, error) {
	if id >= p.nPages {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrPageOutOfRange, id, p.nPages)
	}
	p.stats.Fetches++
	if fr, ok := p.frames[id]; ok {
		p.stats.Hits++
		if fr.pins == 0 {
			p.lru.unlink(fr)
		}
		fr.pins++
		return fr, nil
	}
	if err := p.makeRoom(); err != nil {
		return nil, err
	}
	fr := &frame{id: id, data: make([]byte, p.pageSize), pins: 1}
	if load {
		if err := p.be.readPage(id, fr.data); err != nil {
			return nil, err
		}
		p.stats.Reads++
	}
	p.frames[id] = fr
	return fr, nil
}

// makeRoom evicts the least recently used unpinned frame if the pool is at
// capacity. Caller holds p.mu.
func (p *Pager) makeRoom() error {
	if len(p.frames) < p.pool {
		return nil
	}
	// NO-STEAL: pages dirtied by the open transaction must stay resident
	// until Commit writes them through the log; they are skipped when
	// choosing a victim.
	victim := p.lru.victim(func(fr *frame) bool {
		return p.inTxn && p.txnPages[fr.id]
	})
	if victim == nil {
		return ErrPoolFull
	}
	if victim.dirty {
		if err := p.physWrite(victim); err != nil {
			return err
		}
	}
	p.lru.unlink(victim)
	delete(p.frames, victim.id)
	p.stats.Evicted++
	return nil
}

// markDirty flags a frame dirty and records it in the open transaction's
// write set. Caller holds p.mu.
func (p *Pager) markDirty(fr *frame) {
	fr.dirty = true
	if p.inTxn {
		p.txnPages[fr.id] = true
	}
}

func (p *Pager) physWrite(fr *frame) error {
	if err := p.be.writePage(fr.id, fr.data); err != nil {
		return err
	}
	p.stats.Writes++
	fr.dirty = false
	return nil
}

// unpin decrements the pin count and, when it reaches zero, makes the
// frame evictable. Caller holds p.mu.
func (p *Pager) unpin(fr *frame) {
	fr.pins--
	if fr.pins > 0 {
		return
	}
	p.lru.push(fr)
}

// fileBackend stores pages in an *os.File.
type fileBackend struct {
	f        *os.File
	pageSize int
}

func (b *fileBackend) readPage(id PageID, buf []byte) error {
	_, err := b.f.ReadAt(buf, int64(id)*int64(b.pageSize))
	if err == io.EOF {
		err = nil // page allocated but never written: zeros
	}
	if err != nil {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	return nil
}

func (b *fileBackend) writePage(id PageID, buf []byte) error {
	if _, err := b.f.WriteAt(buf, int64(id)*int64(b.pageSize)); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	return nil
}

func (b *fileBackend) grow(n int) error {
	// Extend lazily via WriteAt; Truncate keeps NumPages consistent with
	// the file size for reopen.
	return b.f.Truncate(int64(n) * int64(b.pageSize))
}

func (b *fileBackend) sync() error  { return b.f.Sync() }
func (b *fileBackend) close() error { return b.f.Close() }

// memBackend stores pages in process memory.
type memBackend struct {
	pageSize int
	pages    [][]byte
}

func (b *memBackend) readPage(id PageID, buf []byte) error {
	if int(id) >= len(b.pages) {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	if b.pages[id] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, b.pages[id])
	return nil
}

func (b *memBackend) writePage(id PageID, buf []byte) error {
	if int(id) >= len(b.pages) {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	if b.pages[id] == nil {
		b.pages[id] = make([]byte, b.pageSize)
	}
	copy(b.pages[id], buf)
	return nil
}

func (b *memBackend) grow(n int) error {
	for len(b.pages) < n {
		b.pages = append(b.pages, nil)
	}
	return nil
}

func (b *memBackend) sync() error  { return nil }
func (b *memBackend) close() error { return nil }
