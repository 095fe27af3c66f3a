package rtree

import (
	"repro/internal/geom"
	"repro/internal/pager"
)

// Nearest is an incremental nearest-neighbour traversal of a Tree
// (Hjaltason & Samet's best-first walk): one priority queue holds tree
// nodes and leaf entries alike, each keyed by the squared MinDist from its
// box to the nearest of a set of query boxes, and the front of the queue is
// popped over and over. A popped node is replaced by its children; a
// popped entry is the next nearest one. The zero value is ready for Reset,
// and a Nearest that has grown its queue once walks again without
// allocating (core pools one per search scratch).
//
// Keys come out in nondecreasing order exactly, not merely up to rounding:
// a parent box contains each child box, every operation between the bounds
// and the key (a difference, a max, a square, a sum in axis order, a min
// over query boxes) is monotone in float64 as it is in the reals, and node
// and entry keys are computed by the same code — so a node's key never
// exceeds the key of anything below it. Bounds are finite (see
// geom.GapSq), which makes every key a number in [0, +Inf]; +Inf is what
// an overflowed square gives and is ordered like any other key, so an
// exhausted walk is reported by Head's ok, never by a key.
type Nearest struct {
	t        *Tree
	qlo, qhi []float64 // query boxes, columnar: box j at [j*d, (j+1)*d)
	heap     []nearItem
}

// nearItem is one queue element: a leaf entry (pay is its Ref) or a node
// (pay is its PageID).
type nearItem struct {
	key   float64
	pay   uint64
	entry bool
}

// Reset starts a walk of t from the query boxes held columnar in qlo/qhi
// (box j occupies [j*d, (j+1)*d) of each, d = t.Dim(); at least one box).
// The slices are read during the walk and must not change under it.
func (it *Nearest) Reset(t *Tree, qlo, qhi []float64) {
	it.t, it.qlo, it.qhi = t, qlo, qhi
	it.heap = append(it.heap[:0], nearItem{pay: uint64(t.root)})
}

// Head returns the key at the front of the queue — a node's or an
// entry's. Nothing the walk has yet to return has a smaller key. ok is
// false once the walk is exhausted.
func (it *Nearest) Head() (keySq float64, ok bool) {
	if len(it.heap) == 0 {
		return 0, false
	}
	return it.heap[0].key, true
}

// Pop removes the front of the queue — the item whose key Head just gave —
// which must not be exhausted. If it is a leaf entry, Pop returns its Ref
// with entry = true. If it is a node, its children take its place in the
// queue and entry is false.
func (it *Nearest) Pop() (ref Ref, entry bool, err error) {
	top := it.heap[0]
	it.popFront()
	if top.entry {
		return Ref(top.pay), true, nil
	}
	fn, err := it.t.readFlat(pager.PageID(top.pay))
	if err != nil {
		return 0, false, err
	}
	d := it.t.dim
	for e := 0; e < fn.count; e++ {
		o := e * 2 * d
		lo, hi := fn.bounds[o:o+d], fn.bounds[o+d:o+2*d]
		key := geom.MinDistSqLH(it.qlo[:d], it.qhi[:d], lo, hi)
		for q := d; q < len(it.qlo); q += d {
			key = min(key, geom.MinDistSqLH(it.qlo[q:q+d], it.qhi[q:q+d], lo, hi))
		}
		it.push(nearItem{key: key, pay: fn.pay[e], entry: fn.leaf})
	}
	return 0, false, nil
}

// push adds x to the binary min-heap.
func (it *Nearest) push(x nearItem) {
	h := append(it.heap, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(h[i].key < h[parent].key) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	it.heap = h
}

// popFront removes the minimum of the heap.
func (it *Nearest) popFront() {
	h := it.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h[r].key < h[l].key {
			j = r
		}
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it.heap = h
}
