package rtree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/pager"
)

// Visitor receives matching items during a search. Returning false stops
// the traversal early.
type Visitor func(Item) bool

// Intersect visits every indexed entry whose rectangle intersects q.
func (t *Tree) Intersect(q geom.Rect, visit Visitor) error {
	if q.IsEmpty() {
		return nil
	}
	_, err := t.searchRec(t.root, t.height, func(r geom.Rect) bool { return r.Intersects(q) }, visit)
	return err
}

// WithinDist visits every indexed entry whose rectangle lies within
// Euclidean minimum distance eps of q — the paper's phase-2 predicate
// Dmbr(mbr_i(Q), mbr_j(S)) <= ε. Subtrees whose bounding rectangles are
// farther than eps cannot contain matches (MinDist to a containing
// rectangle never exceeds MinDist to the contained one) and are pruned.
//
// This is the visitor-based compatibility form; it materializes an Item
// (cloned rectangle) per accepted entry and walks pages through the
// pager. Hot paths that only need the references should use
// AppendWithinDist, the allocation-free squared-space kernel.
func (t *Tree) WithinDist(q geom.Rect, eps float64, visit Visitor) error {
	if q.IsEmpty() {
		return nil
	}
	_, err := t.searchRec(t.root, t.height, func(r geom.Rect) bool { return r.MinDist(q) <= eps }, visit)
	return err
}

// AppendWithinDist appends to out the Ref of every indexed entry whose
// rectangle lies within Euclidean minimum distance eps of q, returning
// the grown slice. It accepts the same entries WithinDist visits (in the
// same DFS order; the sqrt-space and squared-space predicates can only
// disagree on entries whose distance is within one rounding ulp of ε
// exactly) but runs entirely in squared-distance space — each node
// scan compares MinDistSq against ε² over the contiguous bound array of
// the cached flat node, so a steady-state call performs no allocation
// (when out has capacity) and no pager access. This is the phase-2
// pruning kernel behind core's range search.
func (t *Tree) AppendWithinDist(q geom.Rect, eps float64, out []Ref) ([]Ref, error) {
	if q.IsEmpty() {
		return out, nil
	}
	return t.appendWithin(t.root, t.height, q.L, q.H, eps*eps, out)
}

// appendWithin scans one cached flat node at the given level: a leaf
// appends the refs of its entries within the squared radius straight to
// out (appendLeafWithin), an internal node recurses into each such child
// in entry order — the DFS order WithinDist visits — with no closure
// between the scan and the hit to turn every hit into stores through a
// pointer.
func (t *Tree) appendWithin(page pager.PageID, level uint32, qL, qH []float64, eps2 float64, out []Ref) ([]Ref, error) {
	fn, err := t.readFlat(page, level)
	if err != nil {
		return out, err
	}
	if fn.leaf {
		return fn.appendLeafWithin(t.dim, qL, qH, eps2, out), nil
	}
	d := t.dim
	for e := 0; e < fn.count; e++ {
		o := e * 2 * d
		if geom.MinDistSqLH(qL, qH, fn.bounds[o:o+d], fn.bounds[o+d:o+2*d]) <= eps2 {
			if out, err = t.appendWithin(pager.PageID(fn.pay[e]), level-1, qL, qH, eps2, out); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// appendLeafWithin appends to out the ref of every entry of the leaf fn,
// of dimension d, within squared distance eps2 of (qL, qH), in entry order.
// The dimension switch is hoisted out of the scan so the common
// low-dimensional ones run as unrolled strided loops over the bound array.
// Whether an entry is within reach is a coin toss to a branch predictor,
// so no branch decides it: out is grown once to hold the whole leaf, every
// ref is written past the kept ones, and the kept count advances by the
// comparison — a conditional move.
func (fn *flatNode) appendLeafWithin(d int, qL, qH []float64, eps2 float64, out []Ref) []Ref {
	bounds, pay := fn.bounds, fn.pay[:fn.count]
	out = slices.Grow(out, len(pay))
	n, buf := len(out), out[:cap(out)]
	switch d {
	case 2:
		q0l, q1l, q0h, q1h := qL[0], qL[1], qH[0], qH[1]
		for e, ref := range pay {
			o := e * 4
			buf[n] = Ref(ref)
			if geom.GapSq(bounds[o], bounds[o+2], q0l, q0h)+
				geom.GapSq(bounds[o+1], bounds[o+3], q1l, q1h) <= eps2 {
				n++
			}
		}
	case 3:
		q0l, q1l, q2l := qL[0], qL[1], qL[2]
		q0h, q1h, q2h := qH[0], qH[1], qH[2]
		for e, ref := range pay {
			o := e * 6
			buf[n] = Ref(ref)
			if geom.GapSq(bounds[o], bounds[o+3], q0l, q0h)+
				geom.GapSq(bounds[o+1], bounds[o+4], q1l, q1h)+
				geom.GapSq(bounds[o+2], bounds[o+5], q2l, q2h) <= eps2 {
				n++
			}
		}
	case 4:
		q0l, q1l, q2l, q3l := qL[0], qL[1], qL[2], qL[3]
		q0h, q1h, q2h, q3h := qH[0], qH[1], qH[2], qH[3]
		for e, ref := range pay {
			o := e * 8
			buf[n] = Ref(ref)
			if geom.GapSq(bounds[o], bounds[o+4], q0l, q0h)+
				geom.GapSq(bounds[o+1], bounds[o+5], q1l, q1h)+
				geom.GapSq(bounds[o+2], bounds[o+6], q2l, q2h)+
				geom.GapSq(bounds[o+3], bounds[o+7], q3l, q3h) <= eps2 {
				n++
			}
		}
	default:
		for e, ref := range pay {
			o := e * 2 * d
			buf[n] = Ref(ref)
			if geom.MinDistSqLH(qL, qH, bounds[o:o+d], bounds[o+d:o+2*d]) <= eps2 {
				n++
			}
		}
	}
	return out[:n]
}

// searchRec walks the subtree rooted at page, a node at the given level,
// descending into rectangles accepted by accept, and reports whether
// traversal should continue.
func (t *Tree) searchRec(page pager.PageID, level uint32, accept func(geom.Rect) bool, visit Visitor) (bool, error) {
	n, err := t.readNode(page, level)
	if err != nil {
		return false, err
	}
	for i := range n.entries {
		e := &n.entries[i]
		if !accept(e.rect) {
			continue
		}
		if n.leaf {
			if !visit(Item{Rect: e.rect.Clone(), Ref: e.ref}) {
				return false, nil
			}
			continue
		}
		cont, err := t.searchRec(e.child, level-1, accept, visit)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Scan visits every indexed entry in storage order.
func (t *Tree) Scan(visit Visitor) error {
	_, err := t.searchRec(t.root, t.height, func(geom.Rect) bool { return true }, visit)
	return err
}

// WalkRefs calls visit with the Ref of every indexed entry, leaf by leaf
// in page order, and stops at the first error visit returns. The internal
// levels are walked through the pool to find the leaf pages; the leaves,
// nearly all of the index, are then read in runs of consecutive pages,
// many per pager call, and only their payload words are decoded. A node
// reached twice — child pointers that converge — is a corrupt index and
// fails the walk, as does a walk longer than the index has pages.
func (t *Tree) WalkRefs(visit func(Ref) error) error {
	leaves := []pager.PageID{t.root}
	if t.height > 1 {
		leaves = leaves[:0]
		budget := t.pg.NumPages()
		if err := t.leafPages(t.root, t.height, &budget, &leaves); err != nil {
			return err
		}
	}
	slices.Sort(leaves)
	const runPages = 64
	ps := t.pg.PageSize()
	buf := make([]byte, min(len(leaves), runPages)*ps)
	for i := 0; i < len(leaves); {
		if i > 0 && leaves[i] == leaves[i-1] {
			return fmt.Errorf("rtree: leaf %d reached twice (corrupt index?)", leaves[i])
		}
		j := i + 1
		for j < len(leaves) && j-i < runPages && leaves[j] == leaves[j-1]+1 {
			j++
		}
		run := buf[:(j-i)*ps]
		if err := t.pg.Read(leaves[i], run); err != nil {
			return err
		}
		for k := i; k < j; k++ {
			if err := t.leafRefs(leaves[k], run[(k-i)*ps:(k-i+1)*ps], visit); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// leafPages appends to out the leaf pages below the internal node page,
// which a descent expects at level, spending one unit of budget per
// internal node read.
func (t *Tree) leafPages(page pager.PageID, level uint32, budget *int, out *[]pager.PageID) error {
	if *budget--; *budget < 0 {
		return fmt.Errorf("rtree: walk reaches node %d more often than the index has pages (corrupt index?)", page)
	}
	return t.pg.View(page, func(b []byte) error {
		count, err := t.nodeHeader(page, b, level)
		if err != nil {
			return err
		}
		for i, off := 0, nodeHeaderSize+t.entrySize-8; i < count; i, off = i+1, off+t.entrySize {
			child := pager.PageID(binary.LittleEndian.Uint64(b[off:]))
			if level == 2 {
				*out = append(*out, child)
			} else if err := t.leafPages(child, level-1, budget, out); err != nil {
				return err
			}
		}
		return nil
	})
}

// leafRefs visits the refs of the leaf whose page bytes are b.
func (t *Tree) leafRefs(page pager.PageID, b []byte, visit func(Ref) error) error {
	count, err := t.nodeHeader(page, b, 1)
	if err != nil {
		return err
	}
	for i, off := 0, nodeHeaderSize+t.entrySize-8; i < count; i, off = i+1, off+t.entrySize {
		if err := visit(Ref(binary.LittleEndian.Uint64(b[off:]))); err != nil {
			return err
		}
	}
	return nil
}

// nodeHeader returns the entry count of the node page whose bytes are b,
// refusing one that holds more than a node can or whose leaf flag
// disagrees with level.
func (t *Tree) nodeHeader(page pager.PageID, b []byte, level uint32) (int, error) {
	count := int(binary.LittleEndian.Uint16(b[1:3]))
	if count > t.maxEntries {
		return 0, fmt.Errorf("rtree: node %d count %d exceeds max %d (corrupt page?)", page, count, t.maxEntries)
	}
	return count, checkLevel(page, b[0]&1 != 0, level)
}
