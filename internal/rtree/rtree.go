// Package rtree implements a disk-backed R*-tree spatial index over the
// page store in internal/pager. The paper indexes every partition MBR of
// every data sequence "by using the R-tree [7] or its variants [2,3,4,9]";
// we implement the R*-tree variant (Beckmann et al., 1990): least-overlap
// subtree choice, margin-driven split-axis selection, and forced reinsert
// on first overflow.
//
// Each indexed item is a hyper-rectangle plus an opaque 64-bit reference;
// mdseq packs (sequence id, MBR ordinal) into it. The tree supports
// intersection search, minimum-distance range search (everything whose MBR
// lies within Dmbr ≤ ε of a query rectangle — the paper's phase-2 pruning
// predicate), and incremental nearest-neighbor traversal.
//
// Node pages a deletion or a bulk load frees are chained through their
// first bytes from a head kept in the meta page, and reused before the
// pager grows. Mutations go through the pager's buffer pool with no crash
// protection of their own: internal/txn keeps its trees in memory and
// rebuilds them from its checkpoint and log. Every walk carries its level
// down from the meta page's height, so a corrupt page ends it with an
// error, not a crash.
package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/pager"
)

// Ref is the opaque payload attached to each indexed rectangle.
type Ref uint64

// PackRef packs a sequence id and an MBR ordinal into a Ref.
func PackRef(seqID, ordinal uint32) Ref {
	return Ref(uint64(seqID)<<32 | uint64(ordinal))
}

// Unpack splits a Ref back into (sequence id, MBR ordinal).
func (r Ref) Unpack() (seqID, ordinal uint32) {
	return uint32(r >> 32), uint32(r)
}

// Item is one indexed entry as reported by searches.
type Item struct {
	// Rect is the indexed bounding rectangle.
	Rect geom.Rect
	// Ref is the opaque payload stored with the rectangle.
	Ref Ref
}

const (
	magic          = "MDSRTRE1"
	metaPage       = pager.PageID(0)
	nodeHeaderSize = 1 + 2 // leaf flag + entry count
	// reinsertFraction is the share of entries removed on first overflow
	// (the R*-tree paper's p = 30%).
	reinsertFraction = 0.30
	// minFillFraction is m/M (R*-tree recommendation: 40%).
	minFillFraction = 0.40
)

var (
	// ErrNotFound is returned by Delete when the (rect, ref) pair is absent.
	ErrNotFound = errors.New("rtree: entry not found")
	// ErrBadMeta indicates a corrupt or foreign metadata page.
	ErrBadMeta = errors.New("rtree: bad meta page")
)

// Options configures a Tree.
type Options struct {
	// Dim is the dimensionality of indexed rectangles. Required for New;
	// ignored (read from meta) for Open.
	Dim int
	// Pager supplies page storage. Required.
	Pager *pager.Pager
	// MaxEntries overrides the page-derived node capacity (0 = derive from
	// page size). Mostly for tests and fanout ablations; values that do not
	// fit the page are rejected.
	MaxEntries int
}

// Tree is an R*-tree. It is NOT safe for concurrent mutation; concurrent
// read-only searches are safe provided no Insert/Delete runs. mdseq
// serializes index writes at the database layer.
type Tree struct {
	pg         *pager.Pager
	dim        int
	root       pager.PageID
	height     uint32 // 1 = root is a leaf
	size       uint64
	freeHead   pager.PageID
	maxEntries int
	minEntries int
	entrySize  int
	dirtyMeta  bool

	// flat caches the columnar decoding of node pages (PageID →
	// *flatNode) for the squared-space search kernel (AppendWithinDist).
	// Entries are dropped whenever their page is rewritten or freed, so
	// the cache tracks the live tree exactly; it holds at most one
	// decoded copy of every visited node (O(tree bytes) extra memory,
	// traded for allocation-free, pager-free steady-state searches).
	flat sync.Map
}

// New creates a fresh tree on an empty pager (the pager must have no
// allocated pages; the tree claims page 0 for metadata).
func New(opts Options) (*Tree, error) {
	if opts.Pager == nil {
		return nil, errors.New("rtree: nil pager")
	}
	if opts.Dim < 1 {
		return nil, fmt.Errorf("rtree: invalid dimension %d", opts.Dim)
	}
	if opts.Pager.NumPages() != 0 {
		return nil, errors.New("rtree: New requires an empty pager; use Open for existing files")
	}
	t := &Tree{
		pg:       opts.Pager,
		dim:      opts.Dim,
		freeHead: pager.InvalidPage,
	}
	if err := t.computeCapacity(opts.MaxEntries); err != nil {
		return nil, err
	}
	mp, err := t.pg.Alloc()
	if err != nil {
		return nil, err
	}
	if mp != metaPage {
		return nil, fmt.Errorf("rtree: meta page allocated as %d, want 0", mp)
	}
	rootPage, err := t.allocNodePage()
	if err != nil {
		return nil, err
	}
	t.root = rootPage
	t.height = 1
	if err := t.writeNode(&node{page: rootPage, leaf: true}); err != nil {
		return nil, err
	}
	t.dirtyMeta = true
	if err := t.flushMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from a pager whose page 0 holds tree
// metadata. MaxEntries, if non-zero, must match the stored capacity's page
// feasibility; the stored meta wins for dim/root/height/size.
func Open(opts Options) (*Tree, error) {
	if opts.Pager == nil {
		return nil, errors.New("rtree: nil pager")
	}
	t := &Tree{pg: opts.Pager}
	if err := t.readMeta(); err != nil {
		return nil, err
	}
	if err := t.computeCapacity(opts.MaxEntries); err != nil {
		return nil, err
	}
	return t, nil
}

// computeCapacity derives entry size and node fanout from the page size.
func (t *Tree) computeCapacity(override int) error {
	t.entrySize = t.dim*16 + 8 // L,H float64s + 8-byte ref/child
	maxE, minE, err := CapacityFor(t.pg.PageSize(), t.dim, override)
	if err != nil {
		return err
	}
	t.maxEntries = maxE
	t.minEntries = minE
	return nil
}

// CapacityFor derives the node fanout a tree over the given page size
// (0 = pager.DefaultPageSize) and dimensionality uses, applying the same
// rules as tree construction: capacity from entry size, an optional
// override that must fit the page, and the R*-tree minimum-fill clamp.
// It exists so the segment store can compute the STR leaf grouping of a
// future tree without opening one; the grouping is valid for any tree
// whose MaxEntries matches the returned maximum.
func CapacityFor(pageSize, dim, override int) (maxEntries, minEntries int, err error) {
	if pageSize == 0 {
		pageSize = pager.DefaultPageSize
	}
	entrySize := dim*16 + 8 // L,H float64s + 8-byte ref/child
	capacity := (pageSize - nodeHeaderSize) / entrySize
	if override > 0 {
		if override > capacity {
			return 0, 0, fmt.Errorf("rtree: MaxEntries %d exceeds page capacity %d", override, capacity)
		}
		capacity = override
	}
	if capacity < 4 {
		return 0, 0, fmt.Errorf("rtree: page size %d too small for dim %d (capacity %d, need >= 4)",
			pageSize, dim, capacity)
	}
	minEntries = int(minFillFraction * float64(capacity))
	if minEntries < 1 {
		minEntries = 1
	}
	if minEntries > capacity/2 {
		minEntries = capacity / 2
	}
	return capacity, minEntries, nil
}

// Dim returns the dimensionality of the indexed rectangles.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return int(t.size) }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return int(t.height) }

// MaxEntries returns the node capacity (fanout).
func (t *Tree) MaxEntries() int { return t.maxEntries }

// MinEntries returns the node minimum-fill in force (the R*-tree m).
func (t *Tree) MinEntries() int { return t.minEntries }

// Flush persists metadata and all dirty pages.
func (t *Tree) Flush() error {
	if err := t.flushMeta(); err != nil {
		return err
	}
	return t.pg.Flush()
}

// --- metadata ----------------------------------------------------------

// meta layout: magic[8] | dim u16 | root u32 | height u32 | size u64 |
// freeHead u32
func (t *Tree) flushMeta() error {
	if !t.dirtyMeta {
		return nil
	}
	err := t.pg.Update(metaPage, func(b []byte) error {
		copy(b[0:8], magic)
		binary.LittleEndian.PutUint16(b[8:10], uint16(t.dim))
		binary.LittleEndian.PutUint32(b[10:14], uint32(t.root))
		binary.LittleEndian.PutUint32(b[14:18], t.height)
		binary.LittleEndian.PutUint64(b[18:26], t.size)
		binary.LittleEndian.PutUint32(b[26:30], uint32(t.freeHead))
		return nil
	})
	if err == nil {
		t.dirtyMeta = false
	}
	return err
}

func (t *Tree) readMeta() error {
	pages := t.pg.NumPages()
	return t.pg.View(metaPage, func(b []byte) error {
		if string(b[0:8]) != magic {
			return fmt.Errorf("%w: magic %q", ErrBadMeta, b[0:8])
		}
		t.dim = int(binary.LittleEndian.Uint16(b[8:10]))
		t.root = pager.PageID(binary.LittleEndian.Uint32(b[10:14]))
		t.height = binary.LittleEndian.Uint32(b[14:18])
		t.size = binary.LittleEndian.Uint64(b[18:26])
		t.freeHead = pager.PageID(binary.LittleEndian.Uint32(b[26:30]))
		// A tree of height h occupies the meta page and at least h node
		// pages, which bounds the depth of every walk (see checkLevel).
		if t.dim < 1 || t.height < 1 || int64(t.height) >= int64(pages) {
			return fmt.Errorf("%w: dim %d height %d in %d pages", ErrBadMeta, t.dim, t.height, pages)
		}
		return nil
	})
}

// --- node page allocation (chained free list, persisted via meta) -------

func (t *Tree) allocNodePage() (pager.PageID, error) {
	if t.freeHead != pager.InvalidPage {
		id := t.freeHead
		var next pager.PageID
		err := t.pg.View(id, func(b []byte) error {
			next = pager.PageID(binary.LittleEndian.Uint32(b[0:4]))
			return nil
		})
		if err != nil {
			return pager.InvalidPage, err
		}
		t.freeHead = next
		t.dirtyMeta = true
		return id, nil
	}
	return t.pg.Alloc()
}

func (t *Tree) freeNodePage(id pager.PageID) error {
	t.flat.Delete(id)
	err := t.pg.Update(id, func(b []byte) error {
		binary.LittleEndian.PutUint32(b[0:4], uint32(t.freeHead))
		return nil
	})
	if err != nil {
		return err
	}
	t.freeHead = id
	t.dirtyMeta = true
	return nil
}
