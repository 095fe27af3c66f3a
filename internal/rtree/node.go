package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pager"
)

// entry is one slot in a node: a rectangle plus either a child page
// (internal nodes) or a caller reference (leaves).
type entry struct {
	rect  geom.Rect
	child pager.PageID // internal nodes
	ref   Ref          // leaves
}

// node is the in-memory form of one tree page.
type node struct {
	page    pager.PageID
	leaf    bool
	entries []entry
}

// mbr returns the minimum bounding rectangle of all entries in n.
func (n *node) mbr() geom.Rect {
	var r geom.Rect
	for i := range n.entries {
		r.ExtendRect(n.entries[i].rect)
	}
	return r
}

// flatNode is the search-path form of one decoded page: every entry's
// bounds in one contiguous array (entry e occupies
// bounds[e*2d : e*2d+d] = L and bounds[e*2d+d : (e+1)*2d] = H) plus a
// parallel payload array holding the Ref (leaves) or child PageID
// (internal nodes). Scanning a flatNode is a sequential walk over plain
// float64s — no per-entry slice headers, no pointer chasing — and the
// decoded form is cached per page (Tree.flat) so steady-state searches
// never touch the pager or allocate.
type flatNode struct {
	leaf   bool
	count  int
	bounds []float64
	pay    []uint64
}

// readFlat returns the cached flat decoding of page id, decoding and
// caching it on first use. Cached nodes are invalidated by writeNode and
// freeNodePage, so a flatNode can never go stale; concurrent searches may
// race to decode the same page, in which case both decodings are valid
// and the last Store wins.
func (t *Tree) readFlat(id pager.PageID) (*flatNode, error) {
	if v, ok := t.flat.Load(id); ok {
		return v.(*flatNode), nil
	}
	fn := &flatNode{}
	err := t.pg.View(id, func(b []byte) error {
		fn.leaf = b[0]&1 != 0
		count := int(binary.LittleEndian.Uint16(b[1:3]))
		if count > t.maxEntries {
			return fmt.Errorf("rtree: node %d count %d exceeds max %d (corrupt page?)", id, count, t.maxEntries)
		}
		fn.count = count
		fn.bounds = make([]float64, count*2*t.dim)
		fn.pay = make([]uint64, count)
		off := nodeHeaderSize
		for i := 0; i < count; i++ {
			base := i * 2 * t.dim
			for k := 0; k < 2*t.dim; k++ {
				fn.bounds[base+k] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
				off += 8
			}
			fn.pay[i] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.flat.Store(id, fn)
	return fn, nil
}

// Node page layout:
//
//	flags  u8   (bit 0: leaf)
//	count  u16
//	entries: count × (dim×8 bytes L | dim×8 bytes H | 8 bytes ref-or-child)
//
// Freed pages reuse bytes 0:4 for the free-list next pointer, which is fine
// because a freed page is never interpreted as a node.
func (t *Tree) writeNode(n *node) error {
	if len(n.entries) > t.maxEntries {
		return fmt.Errorf("rtree: node %d has %d entries, max %d", n.page, len(n.entries), t.maxEntries)
	}
	t.flat.Delete(n.page)
	return t.pg.Update(n.page, func(b []byte) error {
		var flags byte
		if n.leaf {
			flags |= 1
		}
		b[0] = flags
		binary.LittleEndian.PutUint16(b[1:3], uint16(len(n.entries)))
		off := nodeHeaderSize
		for i := range n.entries {
			e := &n.entries[i]
			for k := 0; k < t.dim; k++ {
				binary.LittleEndian.PutUint64(b[off:], math.Float64bits(e.rect.L[k]))
				off += 8
			}
			for k := 0; k < t.dim; k++ {
				binary.LittleEndian.PutUint64(b[off:], math.Float64bits(e.rect.H[k]))
				off += 8
			}
			if n.leaf {
				binary.LittleEndian.PutUint64(b[off:], uint64(e.ref))
			} else {
				binary.LittleEndian.PutUint64(b[off:], uint64(e.child))
			}
			off += 8
		}
		return nil
	})
}

// readNode decodes page id into its mutable in-memory form. The bounds of
// all entries are decoded into one slab, each entry's L and H a capped
// view of it: 2 allocations per node instead of 2·count + 1. That is
// sound only while no code writes an entry's rect in place — node.mbr and
// boundOf clone on their first ExtendRect, and splits, reinserts and
// parent updates copy or replace whole entries — so keep it that way.
func (t *Tree) readNode(id pager.PageID) (*node, error) {
	n := &node{page: id}
	err := t.pg.View(id, func(b []byte) error {
		n.leaf = b[0]&1 != 0
		count := int(binary.LittleEndian.Uint16(b[1:3]))
		if count > t.maxEntries {
			return fmt.Errorf("rtree: node %d count %d exceeds max %d (corrupt page?)", id, count, t.maxEntries)
		}
		n.entries = make([]entry, count)
		d := t.dim
		slab := make([]float64, count*2*d)
		off := nodeHeaderSize
		for i := 0; i < count; i++ {
			lh := slab[i*2*d : (i+1)*2*d : (i+1)*2*d]
			for k := range lh {
				lh[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
				off += 8
			}
			payload := binary.LittleEndian.Uint64(b[off:])
			off += 8
			n.entries[i] = entry{rect: geom.Rect{L: lh[:d:d], H: lh[d:]}}
			if n.leaf {
				n.entries[i].ref = Ref(payload)
			} else {
				n.entries[i].child = pager.PageID(payload)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}
