package rtree

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

// chooseSubtreeReference is the textbook quadratic R* ChooseSubtree: for
// each child i, Σ_j≠i IV(i ∪ r, j) − IV(i, j) summed over every sibling
// in index order, ties broken by area enlargement, then area (inner
// children: area enlargement, then area). chooseSubtree must pick the
// same index.
func chooseSubtreeReference(n *node, r geom.Rect, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		bestOverlap, bestEnlarge, bestArea := +1e308, +1e308, +1e308
		for i := range n.entries {
			enlarged := n.entries[i].rect.Union(r)
			var overlapDelta float64
			for j := range n.entries {
				if j == i {
					continue
				}
				overlapDelta += enlarged.IntersectionVolume(n.entries[j].rect) -
					n.entries[i].rect.IntersectionVolume(n.entries[j].rect)
			}
			enlarge := enlarged.Volume() - n.entries[i].rect.Volume()
			area := n.entries[i].rect.Volume()
			if overlapDelta < bestOverlap ||
				(overlapDelta == bestOverlap && enlarge < bestEnlarge) ||
				(overlapDelta == bestOverlap && enlarge == bestEnlarge && area < bestArea) {
				best, bestOverlap, bestEnlarge, bestArea = i, overlapDelta, enlarge, area
			}
		}
		return best
	}
	bestEnlarge, bestArea := +1e308, +1e308
	for i := range n.entries {
		enlarge := n.entries[i].rect.Enlargement(r)
		area := n.entries[i].rect.Volume()
		if enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	return best
}

// subtreeBox draws one box of the shapes chooseSubtree must rank exactly
// like the reference: random boxes, boxes on a signed 1/8 grid (so they
// touch, nest, coincide, tie, and carry −0 as well as +0 bounds), point
// boxes, and boxes with zero width on one axis — all scaled by scale,
// where 1e200 overflows every volume to +Inf and 1e-200 underflows it to 0.
func subtreeBox(rng *rand.Rand, dim int, scale float64) geom.Rect {
	lo, hi := make(geom.Point, dim), make(geom.Point, dim)
	kind := rng.Intn(4)
	for k := range lo {
		var a, b float64
		if kind == 1 {
			a, b = float64(rng.Intn(9))/8, float64(rng.Intn(9))/8
			if rng.Intn(2) == 0 {
				a = -a
			}
			if rng.Intn(2) == 0 {
				b = -b
			}
		} else {
			a = rng.Float64()*2 - 1
			b = a + rng.Float64()*0.4
		}
		if a > b {
			a, b = b, a
		}
		if kind == 2 {
			b = a
		}
		lo[k], hi[k] = a*scale, b*scale
	}
	if kind == 3 {
		k := rng.Intn(dim)
		hi[k] = lo[k]
	}
	return geom.Rect{L: lo, H: hi}
}

// TestChooseSubtreeMatchesReference requires chooseSubtree to pick the
// reference's child, on both branches, for random nodes of 2…M+1 entries
// at d = 1…5: duplicated rects, zero-volume and point boxes, a query box
// inside a child, grid-aligned ties, ±0 bounds, and 1e200 / 1e-200
// coordinates whose volumes overflow (Inf − Inf is NaN) or underflow.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	rounds := 1500
	if testing.Short() {
		rounds = 200
	}
	for dim := 1; dim <= 5; dim++ {
		maxE, _, err := CapacityFor(0, dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Tree{dim: dim}
		rng := rand.New(rand.NewSource(int64(40 + dim)))
		for round := 0; round < rounds; round++ {
			scale := 1.0
			switch rng.Intn(8) {
			case 0:
				scale = 1e200
			case 1:
				scale = 1e-200
			}
			count := 2 + rng.Intn(maxE)
			n := &node{entries: make([]entry, count)}
			for i := range n.entries {
				if i > 0 && rng.Intn(6) == 0 {
					n.entries[i].rect = n.entries[rng.Intn(i)].rect
					continue
				}
				n.entries[i].rect = subtreeBox(rng, dim, scale)
			}
			r := subtreeBox(rng, dim, scale)
			if rng.Intn(4) == 0 {
				// A query box inside one child.
				c := n.entries[rng.Intn(count)].rect
				for k := range r.L {
					a, b := rng.Float64(), rng.Float64()
					if a > b {
						a, b = b, a
					}
					w := c.H[k] - c.L[k]
					r.H[k] = min(c.L[k]+b*w, c.H[k])
					r.L[k] = min(c.L[k]+a*w, r.H[k])
				}
			}
			for _, leaves := range []bool{true, false} {
				if got, want := tr.chooseSubtree(n, r, leaves), chooseSubtreeReference(n, r, leaves); got != want {
					t.Fatalf("dim %d round %d (%d entries, scale %g, leaves %v): chose %d, reference %d\nquery %v\nchosen %v\nreference's %v",
						dim, round, count, scale, leaves, got, want, r, n.entries[got].rect, n.entries[want].rect)
				}
			}
		}
	}
}

// pagesDigest hashes every page of the tree's pager in page order: the
// index layout byte for byte, free list included.
func pagesDigest(t *testing.T, tr *Tree) string {
	t.Helper()
	h := sha256.New()
	for id := 0; id < tr.pg.NumPages(); id++ {
		if err := tr.pg.View(pager.PageID(id), func(b []byte) error {
			h.Write(b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestInsertPagesGolden pins the pages a seeded stream of inserts and
// deletes leaves behind — random boxes, grid-aligned boxes that tie and
// have zero width, re-inserted duplicates — at d = 2, 3, 5, under a small
// fanout (height ≥ 3: both branches of chooseSubtree, splits, reinserts,
// condensation) and the page-derived one (full leaf-parent nodes). The
// digests were recorded at bf554bb, under chooseSubtreeReference's
// choices; a moved digest means an insert chose, split or wrote
// differently.
func TestInsertPagesGolden(t *testing.T) {
	cases := []struct {
		dim, maxEntries, ops int
		want                 string
	}{
		{2, 8, 3000, "2fe3896c218401c9"},
		{2, 0, 3000, "37b1d1ba4cbb6f0e"},
		{3, 8, 3000, "afbec3e7937b8bbe"},
		{3, 0, 3000, "4997c8395ecc19b7"},
		{5, 8, 3000, "e89d45ddaaabe888"},
		{5, 0, 3000, "6421b68285b04001"},
	}
	for _, c := range cases {
		tr := newMemTree(t, c.dim, c.maxEntries)
		rng := rand.New(rand.NewSource(int64(7*c.dim + c.maxEntries)))
		var live []Item
		for i := 0; i < c.ops; i++ {
			if len(live) > 0 && rng.Intn(5) == 0 {
				k := rng.Intn(len(live))
				if err := tr.Delete(live[k].Rect, live[k].Ref); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			var r geom.Rect
			switch {
			case len(live) > 0 && rng.Intn(8) == 0:
				r = live[rng.Intn(len(live))].Rect.Clone()
			case rng.Intn(2) == 0:
				r = gridRect(rng, c.dim, 1)
			default:
				r = randRect(rng, c.dim, 0.05)
			}
			if err := tr.Insert(r, Ref(i)); err != nil {
				t.Fatal(err)
			}
			live = append(live, Item{Rect: r, Ref: Ref(i)})
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if c.maxEntries > 0 && tr.Height() < 3 {
			t.Fatalf("dim %d fanout %d: height %d never runs chooseSubtree's non-leaf branch", c.dim, c.maxEntries, tr.Height())
		}
		if got := pagesDigest(t, tr); got != c.want {
			t.Errorf("dim %d fanout %d: pages digest %s, want %s (height %d, %d entries)",
				c.dim, c.maxEntries, got, c.want, tr.Height(), tr.Len())
		}
	}
}
