package rtree

import (
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

// appendWithin scans one cached flat node at the given level, descending
// into children whose bounds pass the squared-distance predicate. The
// dimension switch is hoisted per node so the common low-dimensional scans
// run as unrolled strided loops over the bound array.
func (t *Tree) appendWithin(page pager.PageID, level uint32, qL, qH []float64, eps2 float64, out []Ref) ([]Ref, error) {
	fn, err := t.readFlat(page, level)
	if err != nil {
		return out, err
	}
	d := t.dim
	bounds := fn.bounds
	var derr error
	descend := func(e int) bool {
		if fn.leaf {
			out = append(out, Ref(fn.pay[e]))
			return true
		}
		out, derr = t.appendWithin(pager.PageID(fn.pay[e]), level-1, qL, qH, eps2, out)
		return derr == nil
	}
	switch d {
	case 2:
		q0l, q1l, q0h, q1h := qL[0], qL[1], qH[0], qH[1]
		for e := 0; e < fn.count; e++ {
			o := e * 4
			d2 := geom.GapSq(bounds[o], bounds[o+2], q0l, q0h) +
				geom.GapSq(bounds[o+1], bounds[o+3], q1l, q1h)
			if d2 <= eps2 && !descend(e) {
				return out, derr
			}
		}
	case 3:
		q0l, q1l, q2l := qL[0], qL[1], qL[2]
		q0h, q1h, q2h := qH[0], qH[1], qH[2]
		for e := 0; e < fn.count; e++ {
			o := e * 6
			d2 := geom.GapSq(bounds[o], bounds[o+3], q0l, q0h) +
				geom.GapSq(bounds[o+1], bounds[o+4], q1l, q1h) +
				geom.GapSq(bounds[o+2], bounds[o+5], q2l, q2h)
			if d2 <= eps2 && !descend(e) {
				return out, derr
			}
		}
	case 4:
		q0l, q1l, q2l, q3l := qL[0], qL[1], qL[2], qL[3]
		q0h, q1h, q2h, q3h := qH[0], qH[1], qH[2], qH[3]
		for e := 0; e < fn.count; e++ {
			o := e * 8
			d2 := geom.GapSq(bounds[o], bounds[o+4], q0l, q0h) +
				geom.GapSq(bounds[o+1], bounds[o+5], q1l, q1h) +
				geom.GapSq(bounds[o+2], bounds[o+6], q2l, q2h) +
				geom.GapSq(bounds[o+3], bounds[o+7], q3l, q3h)
			if d2 <= eps2 && !descend(e) {
				return out, derr
			}
		}
	default:
		for e := 0; e < fn.count; e++ {
			o := e * 2 * d
			if geom.MinDistSqLH(qL, qH, bounds[o:o+d], bounds[o+d:o+2*d]) <= eps2 && !descend(e) {
				return out, derr
			}
		}
	}
	return out, nil
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
