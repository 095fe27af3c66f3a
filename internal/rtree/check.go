package rtree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/pager"
)

// CheckInvariants walks the whole tree and verifies its structural
// invariants. It is exported for tests and debugging tools:
//
//   - every internal entry's rectangle equals the MBR of its child node,
//   - every node except the root holds between minEntries and maxEntries,
//   - the root holds at least 1 entry unless the tree is empty,
//   - all leaves sit at the same depth (== Height),
//   - the number of leaf entries equals Len().
func (t *Tree) CheckInvariants() error {
	count, err := t.checkRec(t.root, t.height, t.root)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d leaf entries reachable", t.size, count)
	}
	return nil
}

func (t *Tree) checkRec(page pager.PageID, level uint32, root pager.PageID) (uint64, error) {
	n, err := t.readNode(page, level)
	if err != nil {
		return 0, err
	}
	if page == root {
		if t.size > 0 && len(n.entries) == 0 {
			return 0, fmt.Errorf("rtree: non-empty tree with empty root")
		}
	} else if len(n.entries) < t.minEntries || len(n.entries) > t.maxEntries {
		return 0, fmt.Errorf("rtree: node %d has %d entries, want [%d,%d]",
			page, len(n.entries), t.minEntries, t.maxEntries)
	}
	if n.leaf {
		return uint64(len(n.entries)), nil
	}
	var total uint64
	for i := range n.entries {
		child, err := t.readNode(n.entries[i].child, level-1)
		if err != nil {
			return 0, err
		}
		want := child.mbr()
		if !n.entries[i].rect.Equal(want) {
			return 0, fmt.Errorf("rtree: node %d entry %d rect %v != child %d mbr %v",
				page, i, n.entries[i].rect, n.entries[i].child, want)
		}
		c, err := t.checkRec(n.entries[i].child, level-1, root)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// TreeStats summarizes the tree's shape and space utilization.
type TreeStats struct {
	// Height is the number of levels, counting the leaf level as 1.
	Height int
	// InternalNodes counts directory nodes.
	InternalNodes int
	// LeafNodes counts leaf nodes.
	LeafNodes    int
	Entries      int     // leaf entries (== Len())
	LeafFill     float64 // mean leaf occupancy as a fraction of capacity
	InternalFill float64 // mean internal occupancy (0 when height == 1)
}

// Stats walks the tree and reports shape and fill statistics — the
// utilization numbers behind the fanout ablation and the bulk-vs-
// incremental packing comparison.
func (t *Tree) Stats() (TreeStats, error) {
	st := TreeStats{Height: int(t.height), Entries: int(t.size)}
	var leafEntries, internalEntries int
	var walk func(page pager.PageID, level uint32) error
	walk = func(page pager.PageID, level uint32) error {
		n, err := t.readNode(page, level)
		if err != nil {
			return err
		}
		if n.leaf {
			st.LeafNodes++
			leafEntries += len(n.entries)
			return nil
		}
		st.InternalNodes++
		internalEntries += len(n.entries)
		for i := range n.entries {
			if err := walk(n.entries[i].child, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height); err != nil {
		return TreeStats{}, err
	}
	if st.LeafNodes > 0 {
		st.LeafFill = float64(leafEntries) / float64(st.LeafNodes*t.maxEntries)
	}
	if st.InternalNodes > 0 {
		st.InternalFill = float64(internalEntries) / float64(st.InternalNodes*t.maxEntries)
	}
	return st, nil
}

// Bounds returns the MBR of the entire index (empty when the tree is empty).
func (t *Tree) Bounds() (geom.Rect, error) {
	n, err := t.readNode(t.root, t.height)
	if err != nil {
		return geom.Rect{}, err
	}
	return n.mbr(), nil
}
