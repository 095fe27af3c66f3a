package rtree

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// BulkLoad replaces an empty tree's contents with the given items using
// Sort-Tile-Recursive packing (Leutenegger et al., 1997): entries are
// sorted by center along dimension 0, tiled into slabs, recursively tiled
// along the remaining dimensions, and packed into full nodes; upper levels
// are packed the same way over the child MBRs. The result is a compact
// index built in O(n log n) — far cheaper than n one-at-a-time inserts —
// which mdseq uses when indexing a whole corpus at once.
//
// The tree must be empty; partially filled trees return an error.
func (t *Tree) BulkLoad(items []Item) error {
	if t.size != 0 {
		return errors.New("rtree: BulkLoad requires an empty tree")
	}
	if len(items) == 0 {
		return nil
	}
	return t.mutate(func() error { return t.bulkLoadLocked(items) })
}

// bulkLoadLocked is BulkLoad's body. As in BulkLoadLeaves, the leaf
// entries alias the items' rects, which are only read.
func (t *Tree) bulkLoadLocked(items []Item) error {
	entries := make([]entry, len(items))
	for i, it := range items {
		if it.Rect.IsEmpty() || it.Rect.Dim() != t.dim {
			return fmt.Errorf("rtree: bulk item %d rect dim %d, want %d", i, it.Rect.Dim(), t.dim)
		}
		entries[i] = entry{rect: it.Rect, ref: it.Ref}
	}
	return t.packLocked(strTile(entries, make([]centerKey, len(entries)), 0, t.dim, t.maxEntries, t.minEntries), len(items))
}

// BulkLoadLeaves replaces an empty tree's contents with pre-grouped leaf
// pages: each inner slice becomes one leaf node verbatim, and only the
// upper levels are packed by STR tiling over the leaf MBRs. It is the
// load half of the v2 segment store's packed-tree section — the leaf
// grouping was computed once by STRLeaves at build time, so reloading
// skips the leaf-level sorts (the bulk of BulkLoad's O(n log n)). Every
// leaf must hold between 1 and MaxEntries items; the caller owns
// coverage/uniqueness validation of the refs. A grouping produced by
// STRLeaves with this tree's fanout yields exactly the tree BulkLoad
// would build.
//
// The items' rects are not copied: the leaf entries alias them until
// writeNode has serialized each leaf, and node.mbr clones on its first
// extend, so no entry is kept past the call and the caller's rects are
// only read.
func (t *Tree) BulkLoadLeaves(leaves [][]Item) error {
	if t.size != 0 {
		return errors.New("rtree: BulkLoadLeaves requires an empty tree")
	}
	total := 0
	for _, leaf := range leaves {
		total += len(leaf)
	}
	if total == 0 {
		return nil
	}
	return t.mutate(func() error {
		groups := make([][]entry, len(leaves))
		slab := make([]entry, total)
		for li, leaf := range leaves {
			if len(leaf) == 0 || len(leaf) > t.maxEntries {
				return fmt.Errorf("rtree: packed leaf %d holds %d entries, want 1..%d", li, len(leaf), t.maxEntries)
			}
			g := slab[:len(leaf):len(leaf)]
			slab = slab[len(leaf):]
			for i, it := range leaf {
				if it.Rect.IsEmpty() || it.Rect.Dim() != t.dim {
					return fmt.Errorf("rtree: packed leaf %d item %d rect dim %d, want %d", li, i, it.Rect.Dim(), t.dim)
				}
				g[i] = entry{rect: it.Rect, ref: it.Ref}
			}
			groups[li] = g
		}
		return t.packLocked(groups, total)
	})
}

// packLocked writes the given leaf-level groups as leaf nodes and packs
// every upper level by STR tiling over the children's MBRs, installing
// the result as the tree's contents. Shared by bulkLoadLocked (which
// tiles the leaf level itself) and BulkLoadLeaves (which is handed it).
func (t *Tree) packLocked(groups [][]entry, total int) error {
	// Free the placeholder root; the pack builds fresh pages.
	if err := t.freeNodePage(t.root); err != nil {
		return err
	}

	leaf := true
	height := uint32(0)
	var rootPage = t.root
	for {
		height++
		parents := make([]entry, 0, len(groups))
		for _, g := range groups {
			page, err := t.allocNodePage()
			if err != nil {
				return err
			}
			n := &node{page: page, leaf: leaf, entries: g}
			if err := t.writeNode(n); err != nil {
				return err
			}
			parents = append(parents, entry{rect: n.mbr(), child: page})
		}
		if len(parents) == 1 {
			rootPage = parents[0].child
			break
		}
		groups = strTile(parents, make([]centerKey, len(parents)), 0, t.dim, t.maxEntries, t.minEntries)
		leaf = false
	}

	t.root = rootPage
	t.height = height
	t.size = uint64(total)
	t.dirtyMeta = true
	return t.flushMeta()
}

// STRLeaves returns the leaf-level grouping Sort-Tile-Recursive packing
// produces for items under the given fanout — exactly the leaves
// BulkLoad would build on a tree with maxEntries/minEntries capacity.
// The v2 segment store computes it once at build time and serializes the
// grouping, so a later BulkLoadLeaves can pack the same tree without
// re-sorting. The input slice is not modified; the returned groups hold
// copies of the items (rects still aliased, not cloned).
func STRLeaves(items []Item, dim, maxEntries, minEntries int) [][]Item {
	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{rect: it.Rect, ref: it.Ref}
	}
	groups := strTile(entries, make([]centerKey, len(entries)), 0, dim, maxEntries, minEntries)
	out := make([][]Item, len(groups))
	for gi, g := range groups {
		leaf := make([]Item, len(g))
		for i, e := range g {
			leaf[i] = Item{Rect: e.rect, Ref: e.ref}
		}
		out[gi] = leaf
	}
	return out
}

// strTile recursively tiles entries into groups of at most M (and, except
// possibly in degenerate cases, at least m) by sorting on successive
// center coordinates. keys is sortByCenter's scratch, at least len(es)
// long.
func strTile(es []entry, keys []centerKey, d, dim, M, m int) [][]entry {
	if len(es) <= M {
		return [][]entry{es}
	}
	sortByCenter(es, keys[:len(es)], d)
	if d == dim-1 {
		return chunkBalanced(es, M, m)
	}
	nGroups := (len(es) + M - 1) / M
	slabs := int(math.Ceil(math.Pow(float64(nGroups), 1/float64(dim-d))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(es) + slabs - 1) / slabs
	var out [][]entry
	for off := 0; off < len(es); off += slabSize {
		end := off + slabSize
		if end > len(es) {
			end = len(es)
		}
		out = append(out, strTile(es[off:end], keys, d+1, dim, M, m)...)
	}
	return out
}

// chunkBalanced splits a sorted run into chunks of M, rebalancing the tail
// so no chunk falls below m.
func chunkBalanced(es []entry, M, m int) [][]entry {
	var out [][]entry
	for off := 0; off < len(es); off += M {
		end := off + M
		if end > len(es) {
			end = len(es)
		}
		out = append(out, es[off:end])
	}
	if n := len(out); n >= 2 && len(out[n-1]) < m {
		// Move entries from the second-to-last chunk into the last until
		// both meet the minimum.
		last, prev := out[n-1], out[n-2]
		need := m - len(last)
		cut := len(prev) - need
		out[n-1] = append(append([]entry(nil), prev[cut:]...), last...)
		out[n-2] = prev[:cut]
	}
	return out
}

// sortByCenter orders es by the center of their rectangles on axis d,
// with keys (as long as es) as scratch. The centers are sorted as compact
// (center, position) keys, which keeps the comparisons in cache, and es is
// then permuted in place, cycle by cycle. The order is the one sorting es
// itself with sort.Slice gives, ties included: the sort makes the same
// comparisons (TestSortByCenterOrdersAsSortSlice).
func sortByCenter(es []entry, keys []centerKey, d int) {
	for i := range es {
		keys[i] = centerKey{c: es[i].rect.L[d] + es[i].rect.H[d], i: int32(i)}
	}
	slices.SortFunc(keys, func(a, b centerKey) int {
		if a.c < b.c {
			return -1
		}
		return 0
	})
	// Position k takes the entry at keys[k].i; a placed key is marked -1.
	for k := range keys {
		if keys[k].i < 0 {
			continue
		}
		first, j := es[k], k
		for {
			src := int(keys[j].i)
			keys[j].i = -1
			if src == k {
				es[j] = first
				break
			}
			es[j] = es[src]
			j = src
		}
	}
}

// centerKey is one entry's sort key for sortByCenter: its center and its
// position in the run being sorted.
type centerKey struct {
	c float64
	i int32
}
