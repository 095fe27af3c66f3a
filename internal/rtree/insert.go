package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/pager"
)

// pendingReinsert is an entry removed during overflow treatment or tree
// condensation, waiting to be re-inserted at its original level.
type pendingReinsert struct {
	e     entry
	level uint32 // 1 = leaf level
}

// Insert adds a rectangle with its reference to the index.
func (t *Tree) Insert(r geom.Rect, ref Ref) error {
	if r.IsEmpty() || r.Dim() != t.dim {
		return fmt.Errorf("rtree: insert rect dim %d, want %d", r.Dim(), t.dim)
	}
	return t.mutate(func() error {
		reinsertDone := make(map[uint32]bool)
		if err := t.insertEntry(entry{rect: r.Clone(), ref: ref}, 1, reinsertDone); err != nil {
			return err
		}
		t.size++
		t.dirtyMeta = true
		return t.flushMeta()
	})
}

// mutate runs a structural mutation and, if it fails, restores the tree
// header (root, height, size, free-list head) it started from. Pages the
// failed mutation wrote stay written; what the header no longer reaches is
// unreferenced. core's compensating deletes — undoing a partly indexed
// sequence — run against that restored header, and a missing entry
// (ErrNotFound) leaves the tree exactly as it was.
func (t *Tree) mutate(fn func() error) error {
	savedRoot, savedHeight, savedSize, savedFree := t.root, t.height, t.size, t.freeHead
	err := fn()
	if err != nil {
		t.root, t.height, t.size, t.freeHead = savedRoot, savedHeight, savedSize, savedFree
		t.dirtyMeta = true
	}
	return err
}

// insertEntry inserts e at targetLevel, draining any reinsertions that the
// R*-tree overflow treatment scheduled along the way.
func (t *Tree) insertEntry(e entry, targetLevel uint32, reinsertDone map[uint32]bool) error {
	var pending []pendingReinsert
	if err := t.insertAt(t.root, t.height, targetLevel, e, reinsertDone, &pending); err != nil {
		return err
	}
	// Drain deferred reinserts. Each may itself overflow; with its level
	// already marked in reinsertDone, further overflow splits instead of
	// reinserting again, so this terminates.
	for len(pending) > 0 {
		p := pending[0]
		pending = pending[1:]
		if err := t.insertAt(t.root, t.height, p.level, p.e, reinsertDone, &pending); err != nil {
			return err
		}
	}
	return nil
}

// insertAt descends from page (at the given level) to targetLevel, inserts
// e there, and handles overflow on the way back up. It returns the node's
// new MBR and, when the node split, the entry describing the new sibling.
func (t *Tree) insertAt(page pager.PageID, level, targetLevel uint32, e entry,
	reinsertDone map[uint32]bool, pending *[]pendingReinsert) error {
	newMBR, split, err := t.insertRec(page, level, targetLevel, e, reinsertDone, pending)
	if err != nil {
		return err
	}
	if split != nil {
		// Root split: grow the tree by one level.
		oldRoot := t.root
		newRootPage, err := t.allocNodePage()
		if err != nil {
			return err
		}
		root := &node{
			page: newRootPage,
			leaf: false,
			entries: []entry{
				{rect: newMBR, child: oldRoot},
				*split,
			},
		}
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.root = newRootPage
		t.height++
		t.dirtyMeta = true
	}
	return nil
}

func (t *Tree) insertRec(page pager.PageID, level, targetLevel uint32, e entry,
	reinsertDone map[uint32]bool, pending *[]pendingReinsert) (geom.Rect, *entry, error) {
	n, err := t.readNode(page, level)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	if level == targetLevel {
		n.entries = append(n.entries, e)
	} else {
		if len(n.entries) == 0 {
			return geom.Rect{}, nil, fmt.Errorf("rtree: internal node %d is empty (corrupt page?)", page)
		}
		i := t.chooseSubtree(n, e.rect, level-1 == 1)
		childMBR, childSplit, err := t.insertRec(n.entries[i].child, level-1, targetLevel, e, reinsertDone, pending)
		if err != nil {
			return geom.Rect{}, nil, err
		}
		n.entries[i].rect = childMBR
		if childSplit != nil {
			n.entries = append(n.entries, *childSplit)
		}
	}

	if len(n.entries) <= t.maxEntries {
		if err := t.writeNode(n); err != nil {
			return geom.Rect{}, nil, err
		}
		return n.mbr(), nil, nil
	}

	// Overflow treatment (R*): on the first overflow at a non-root level
	// within one logical insertion, remove the p entries farthest from the
	// node center and schedule them for reinsertion; otherwise split.
	if page != t.root && !reinsertDone[level] {
		reinsertDone[level] = true
		kept, removed := t.pickReinsertVictims(n)
		n.entries = kept
		if err := t.writeNode(n); err != nil {
			return geom.Rect{}, nil, err
		}
		for _, r := range removed {
			*pending = append(*pending, pendingReinsert{e: r, level: level})
		}
		return n.mbr(), nil, nil
	}

	left, right, err := t.splitNode(n)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	sibling := entry{rect: right.mbr(), child: right.page}
	return left.mbr(), &sibling, nil
}

// chooseSubtree implements the R*-tree CS2 step: when the children are
// leaves, pick the entry needing least overlap enlargement
// Σ_j≠i IV(i ∪ r, j) − IV(i, j) (ties: least area enlargement, then least
// area); otherwise least area enlargement (ties: least area).
//
// It picks exactly the child of the textbook quadratic form
// (chooseSubtreeReference in insert_test.go) in far fewer operations.
// i ∪ r lives in a stack buffer, and overlapVolume computes what
// Rect.IntersectionVolume does. Every overlap term is ≥ 0: each axis
// factor of (i ∪ r) ∩ j is at least that of i ∩ j, and rounded
// differences and products are monotone. Hence:
//   - a sibling with IV(i ∪ r, j) = 0 has IV(i, j) = 0 and adds exactly
//     +0, so it is skipped;
//   - a running sum only grows, so a child whose partial sum is strictly
//     above the best so far, or above the full sum of any one child, ends
//     above the minimum the quadratic form settles on and is abandoned.
//     The child of least area enlargement is summed first to seed that
//     bound; it is usually the overlap minimum too. Ties run to the end
//     and are decided in index order.
//
// A sum that turns NaN (Inf − Inf from overflowed volumes) is never
// chosen, by either form; a +Inf partial exceeds the 1e308 start and is
// abandoned where it would have lost. Coordinates are finite
// (core.Sequence.Validate), which overlapVolume relies on as geom.GapSq
// does.
func (t *Tree) chooseSubtree(n *node, r geom.Rect, childrenAreLeaves bool) int {
	d := len(r.L)
	var buf [16]float64
	ub := buf[:]
	if 2*d > len(buf) {
		ub = make([]float64, 2*d)
	}
	u := geom.Rect{L: ub[:d:d], H: ub[d : 2*d : 2*d]} // i ∪ r
	union := func(i int) geom.Rect {
		copy(u.L, n.entries[i].rect.L)
		copy(u.H, n.entries[i].rect.H)
		u.ExtendRect(r)
		return n.entries[i].rect
	}
	least, bestEnlarge, bestArea := 0, +1e308, +1e308
	for i := range n.entries {
		area := union(i).Volume()
		if enlarge := u.Volume() - area; enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			least, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	if !childrenAreLeaves {
		return least
	}
	union(least)
	seed := overlapGrowth(n, least, u, math.Inf(1))
	best := 0
	bestOverlap := +1e308
	bestEnlarge, bestArea = +1e308, +1e308
	for i := range n.entries {
		ri := union(i)
		limit := bestOverlap
		if seed < limit { // false for a NaN seed
			limit = seed
		}
		overlapDelta := overlapGrowth(n, i, u, limit)
		if overlapDelta > limit {
			continue
		}
		area := ri.Volume()
		enlarge := u.Volume() - area
		if overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && enlarge < bestEnlarge) ||
			(overlapDelta == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
			best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
		}
	}
	return best
}

// overlapGrowth sums IV(u, j) − IV(i, j) over the siblings j ≠ i of entry
// i in index order, where u ⊇ entry i, skipping the exact +0 terms and
// returning the partial sum as soon as it exceeds limit. Every term is
// ≥ 0 — each axis factor of u ∩ j dominates that of i ∩ j, and rounding
// is monotone — so a sibling with IV(u, j) = 0 adds an exact +0 and a
// sum past limit only grows; with finite bounds (Sequence.Validate) ±0
// never reaches a volume.
func overlapGrowth(n *node, i int, u geom.Rect, limit float64) float64 {
	ri := n.entries[i].rect
	var sum float64
	for j := range n.entries {
		if j == i {
			continue
		}
		rj := n.entries[j].rect
		grown := overlapVolume(u.L, u.H, rj.L, rj.H)
		if grown == 0 {
			continue
		}
		if sum += grown - overlapVolume(ri.L, ri.H, rj.L, rj.H); sum > limit {
			break
		}
	}
	return sum
}

// overlapVolume is Rect.IntersectionVolume over bound slices of one
// dimensionality, without its early exit: every axis's overlap
// s = min(hi) − max(lo) is taken, and the product is returned unless some
// s ≤ 0. For finite bounds s > 0 exactly when hi > lo (a rounded
// difference of finite floats is 0 only for equal operands and keeps the
// exact difference's sign), so the result is IntersectionVolume's: 0 where
// it returns 0, else the same product in the same axis order. The builtin
// min and max treat ±0 as math.Min and math.Max do, and compile without a
// branch — an unpredictable exit axis per pair cost more than the axes it
// skipped.
func overlapVolume(aL, aH, bL, bH []float64) float64 {
	aH, bL, bH = aH[:len(aL)], bL[:len(aL)], bH[:len(aL)]
	v, w := 1.0, math.Inf(1)
	for k := range aL {
		s := min(aH[k], bH[k]) - max(aL[k], bL[k])
		v *= s
		w = min(w, s)
	}
	if w <= 0 {
		return 0
	}
	return v
}

// pickReinsertVictims removes the reinsertFraction of entries whose centers
// lie farthest from the node MBR's center, returning (kept, removed) with
// removed ordered closest-first ("close reinsert"). Centers are computed
// into reused buffers (CenterInto) and compared by squared distance —
// order-preserving, so the sort is the same while skipping one allocation
// and one sqrt per entry.
func (t *Tree) pickReinsertVictims(n *node) (kept, removed []entry) {
	center := make(geom.Point, t.dim)
	n.mbr().CenterInto(center)
	ec := make(geom.Point, t.dim)
	type distEntry struct {
		d float64 // squared center distance
		e entry
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		e.rect.CenterInto(ec)
		des[i] = distEntry{d: ec.DistSq(center), e: e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })
	p := int(reinsertFraction * float64(len(des)))
	if p < 1 {
		p = 1
	}
	cut := len(des) - p
	for _, de := range des[:cut] {
		kept = append(kept, de.e)
	}
	for _, de := range des[cut:] {
		removed = append(removed, de.e)
	}
	return kept, removed
}

// splitNode splits an overflowing node with the R*-tree topological split:
// choose the axis minimizing total margin over all legal distributions,
// then the distribution minimizing overlap (ties: total area). The left
// half reuses n's page; the right half gets a fresh page.
func (t *Tree) splitNode(n *node) (left, right *node, err error) {
	entries := n.entries
	m := t.minEntries
	M := len(entries) - 1 // == maxEntries; len is M+1

	axis := t.chooseSplitAxis(entries, m, M)

	// Along the chosen axis, evaluate both sort orders and all legal split
	// indices; minimize overlap, then total area.
	bestOverlap, bestArea := +1e308, +1e308
	var bestSorted []entry
	bestK := -1
	for _, byUpper := range []bool{false, true} {
		sorted := make([]entry, len(entries))
		copy(sorted, entries)
		sortEntriesAxis(sorted, axis, byUpper)
		for k := m; k <= M+1-m; k++ {
			g1 := boundOf(sorted[:k])
			g2 := boundOf(sorted[k:])
			overlap := g1.IntersectionVolume(g2)
			area := g1.Volume() + g2.Volume()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestSorted = sorted
				bestK = k
			}
		}
	}

	rightPage, err := t.allocNodePage()
	if err != nil {
		return nil, nil, err
	}
	left = &node{page: n.page, leaf: n.leaf, entries: append([]entry(nil), bestSorted[:bestK]...)}
	right = &node{page: rightPage, leaf: n.leaf, entries: append([]entry(nil), bestSorted[bestK:]...)}
	if err := t.writeNode(left); err != nil {
		return nil, nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// chooseSplitAxis returns the axis with the minimum sum of group margins
// over every legal distribution in both sort orders.
func (t *Tree) chooseSplitAxis(entries []entry, m, M int) int {
	bestAxis, bestMargin := 0, +1e308
	tmp := make([]entry, len(entries))
	for axis := 0; axis < t.dim; axis++ {
		var marginSum float64
		for _, byUpper := range []bool{false, true} {
			copy(tmp, entries)
			sortEntriesAxis(tmp, axis, byUpper)
			for k := m; k <= M+1-m; k++ {
				marginSum += boundOf(tmp[:k]).Margin() + boundOf(tmp[k:]).Margin()
			}
		}
		if marginSum < bestMargin {
			bestAxis, bestMargin = axis, marginSum
		}
	}
	return bestAxis
}

func sortEntriesAxis(es []entry, axis int, byUpper bool) {
	sort.SliceStable(es, func(i, j int) bool {
		if byUpper {
			if es[i].rect.H[axis] != es[j].rect.H[axis] {
				return es[i].rect.H[axis] < es[j].rect.H[axis]
			}
			return es[i].rect.L[axis] < es[j].rect.L[axis]
		}
		if es[i].rect.L[axis] != es[j].rect.L[axis] {
			return es[i].rect.L[axis] < es[j].rect.L[axis]
		}
		return es[i].rect.H[axis] < es[j].rect.H[axis]
	})
}

func boundOf(es []entry) geom.Rect {
	var r geom.Rect
	for i := range es {
		r.ExtendRect(es[i].rect)
	}
	return r
}
