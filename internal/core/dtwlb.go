package core

import (
	"math"

	"repro/internal/geom"
)

// DTW lower-bound machinery: the per-query Sakoe–Chiba envelope rects,
// the envelope-vs-MBR index kernel, and the multidimensional LB_Keogh
// refinement bound. Everything here underestimates the normalized DTW
// distance, which is what lets range and kNN searches under MetricDTW
// run through the R*-tree with no false dismissals.
//
// The bound chain, for a query Q (n points) and a stored sequence S
// (m points) under window w, with denom = max(n, m):
//
//	DTW(Q,S) = (total path cost) / denom, and every warping path has at
//	least denom steps, each matching a data point j to a query point i
//	with |i−j| ≤ w. So for data position j the matched query point lies
//	inside Env_j — the bounding rect of Q over [j−w, j+w] ∩ [0, n−1] —
//	and each per-step cost is at least the point-to-rect distance
//	d(S_j, Env_j). Three underestimates follow:
//
//	B1 (index): min over partitions p of MinDist(EnvRect_p, MBR_p),
//	   where EnvRect_p = ∪ Env_j over p's positions — the minimum
//	   possible per-step cost times (path length ≥ denom) / denom.
//	B2 (index): Σ_p |p|·MinDist(EnvRect_p, MBR_p) / denom — every data
//	   point is matched at least once, by distinct path steps.
//	LB_Keogh (refinement): Σ_j d(S_j, Env_j) / denom — the same
//	   per-point argument against raw points instead of MBRs.
//
// All three never exceed DTW(Q,S); the index uses max(B1, B2), phase 3
// orders and early-abandons with LB_Keogh, and only survivors pay for
// the exact dynamic program.

// dtwScratch is the pooled workspace of DTW evaluation: the two dynamic
// programming rows, flat copies for the point-slice entry point, the
// per-position query envelope arrays, and the deque used to build them.
// It lives inside searchScratch so the whole DTW query path shares the
// search pool's zero-allocation discipline.
type dtwScratch struct {
	prev, cur []float64 // DP rows, len m+1

	qbuf, sbuf []float64 // flat copies for the []geom.Point entry point

	// Per-position envelopes of the query under the window in force:
	// position i's bounds occupy envLo/envHi[i*d:(i+1)*d] (bounding rect
	// of the query over [i−w, i+w] clamped); sufLo/sufHi[i*d:(i+1)*d]
	// holds the suffix envelope over [i, n−1], consulted for data
	// positions at or past the query's end. envN/envD/envW remember the
	// query shape the arrays were built for, so one build serves every
	// candidate of a query.
	envLo, envHi []float64
	sufLo, sufHi []float64
	envN, envD   int
	envW         int
	envBuilt     bool

	deq []int // monotone-deque index buffer for the sliding min/max

	// rectLo/rectHi accumulate one partition's envelope-rect union.
	rectLo, rectHi []float64
}

// resetEnv invalidates the envelope arrays; each metric query calls it
// once so stale envelopes from a previous query (different points,
// window, or dimensionality) can never be consulted.
func (ds *dtwScratch) resetEnv() { ds.envBuilt = false }

// buildEnvelopes fills the per-position envelope arrays for the query in
// qflat (n points of dimension d) under window w, using one monotone
// deque pass per dimension per bound — O(n·d) total, independent of w.
// For w < 0 every envelope is the full query bounding rect; the arrays
// are still filled so consumers need no special case.
func (ds *dtwScratch) buildEnvelopes(qflat []float64, n, d, w int) {
	if ds.envBuilt && ds.envN == n && ds.envD == d && ds.envW == w {
		return
	}
	ds.envLo = ensureFloats(ds.envLo, n*d)
	ds.envHi = ensureFloats(ds.envHi, n*d)
	ds.sufLo = ensureFloats(ds.sufLo, n*d)
	ds.sufHi = ensureFloats(ds.sufHi, n*d)
	ds.rectLo = ensureFloats(ds.rectLo, d)
	ds.rectHi = ensureFloats(ds.rectHi, d)
	ds.deq = ensureInts(ds.deq, n)

	// Suffix envelopes: one backward scan per dimension.
	for k := 0; k < d; k++ {
		lo := qflat[(n-1)*d+k]
		hi := lo
		ds.sufLo[(n-1)*d+k] = lo
		ds.sufHi[(n-1)*d+k] = hi
		for i := n - 2; i >= 0; i-- {
			v := qflat[i*d+k]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			ds.sufLo[i*d+k] = lo
			ds.sufHi[i*d+k] = hi
		}
	}

	if w < 0 {
		// Unconstrained: every envelope is the full query rect (the
		// suffix envelope at 0).
		for i := 0; i < n; i++ {
			copy(ds.envLo[i*d:(i+1)*d], ds.sufLo[:d])
			copy(ds.envHi[i*d:(i+1)*d], ds.sufHi[:d])
		}
	} else {
		for k := 0; k < d; k++ {
			ds.slideExtremum(qflat, n, d, k, w, ds.envLo, true)
			ds.slideExtremum(qflat, n, d, k, w, ds.envHi, false)
		}
	}
	ds.envN, ds.envD, ds.envW = n, d, w
	ds.envBuilt = true
}

// slideExtremum writes the windowed min (wantMin) or max of dimension k
// into out: out[i*d+k] = extremum of qflat[·*d+k] over [i−w, i+w]
// clamped to [0, n−1]. Both window edges are nondecreasing in i, so a
// single monotone deque gives the classic amortized O(n) scan.
func (ds *dtwScratch) slideExtremum(qflat []float64, n, d, k, w int, out []float64, wantMin bool) {
	deq := ds.deq[:0]
	next := 0 // first index not yet offered to the deque
	for i := 0; i < n; i++ {
		left, right := i-w, i+w
		if left < 0 {
			left = 0
		}
		if right > n-1 {
			right = n - 1
		}
		for ; next <= right; next++ {
			v := qflat[next*d+k]
			for len(deq) > 0 {
				back := qflat[deq[len(deq)-1]*d+k]
				if (wantMin && back >= v) || (!wantMin && back <= v) {
					deq = deq[:len(deq)-1]
					continue
				}
				break
			}
			deq = append(deq, next)
		}
		for len(deq) > 0 && deq[0] < left {
			deq = deq[1:]
		}
		out[i*d+k] = qflat[deq[0]*d+k]
	}
}

// envRow returns the envelope bounds governing data position j: the
// per-position envelope for j inside the query's length, the suffix
// envelope from max(0, j−w) for positions past it (the allowed query
// range there is [j−w, n−1]). buildEnvelopes must have run.
func (ds *dtwScratch) envRow(j int) (lo, hi []float64) {
	n, d, w := ds.envN, ds.envD, ds.envW
	if j < n {
		return ds.envLo[j*d : (j+1)*d], ds.envHi[j*d : (j+1)*d]
	}
	i := 0
	if w >= 0 {
		if i = j - w; i < 0 {
			i = 0
		}
		if i > n-1 {
			i = n - 1
		}
	}
	return ds.sufLo[i*d : (i+1)*d], ds.sufHi[i*d : (i+1)*d]
}

// dtwIndexLB is the envelope-vs-MBR kernel: a lower bound on the
// normalized DTW distance between the query (whose envelopes are built
// in ds) and the stored sequence g, computed from g's partition MBRs
// only — no point data is touched. It returns max(B1, B2) (see the
// package comment above), or +Inf when the window admits no alignment.
//
// EnvRect_p is not assembled from every position of p. The envelope of
// position j bounds the query over [j−w, j+w], so envelopes 2w+1 positions
// apart tile the query positions between them, and a suffix envelope (a
// position past the query's end) lies inside the one before it. Visiting
// p's first position, every (2w+1)-th after it and its last therefore
// covers the same query positions as visiting all of them — the same
// minima and maxima — with a few rows per MBR instead of one per point.
// An unconstrained window has one envelope, the whole query's.
func (ds *dtwScratch) dtwIndexLB(g *Segmented) float64 {
	n, d, w := ds.envN, ds.envD, ds.envW
	m := g.Seq.Len()
	if w >= 0 && abs(n-m) > w {
		return math.Inf(1)
	}
	step := m // spans any MBR: an unconstrained window, or one wider than g
	if w >= 0 && w < m {
		step = 2*w + 1
	}
	minMD := math.Inf(1)
	var weighted float64
	for t := range g.MBRs {
		p := &g.MBRs[t]
		// EnvRect_p: union of the envelopes of p's data positions.
		lo, hi := ds.envRow(p.Start)
		copy(ds.rectLo[:d], lo)
		copy(ds.rectHi[:d], hi)
		for j := p.Start; j < p.End-1; {
			j = min(j+step, p.End-1)
			lo, hi := ds.envRow(j)
			for k := 0; k < d; k++ {
				ds.rectLo[k] = min(ds.rectLo[k], lo[k])
				ds.rectHi[k] = max(ds.rectHi[k], hi[k])
			}
		}
		o := t * d
		md := math.Sqrt(geom.MinDistSqLH(ds.rectLo[:d], ds.rectHi[:d], g.Lo[o:o+d], g.Hi[o:o+d]))
		minMD = min(minMD, md)
		weighted += md * float64(p.Count())
	}
	return max(minMD, weighted/float64(max(n, m)))
}

// lbKeogh is the multidimensional LB_Keogh refinement bound: the summed
// point-to-envelope distance over the stored sequence's raw points,
// normalized by the longer length. It early-abandons against cutoff — once
// the partial sum alone puts the bound above cutoff the full sum does too
// (every term is nonnegative) and +Inf is returned. As in dtwFlat the
// running test is against the rounded product cutoff·denom and the
// division confirms it: under window 0 the bound equals the distance term
// for term, and a sequence at exactly cutoff must survive.
// Callers must have ruled out the no-alignment case via dtwIndexLB.
func (ds *dtwScratch) lbKeogh(g *Segmented, cutoff float64) float64 {
	n, d := ds.envN, ds.envD
	m := g.Seq.Len()
	denom := float64(max(n, m))
	limit := cutoff * denom
	var sum float64
	for j := 0; j < m; j++ {
		lo, hi := ds.envRow(j)
		o := j * d
		sum += math.Sqrt(geom.MinDistPointSqFlat(g.Flat[o:o+d], lo, hi))
		if sum > limit && sum/denom > cutoff {
			return math.Inf(1)
		}
	}
	return sum / denom
}

// dtwFlat is the dynamic time warping core over columnar point storage:
// the two-row dynamic program over the Sakoe–Chiba band, returning the
// unnormalized total path cost. cutoff is a normalized distance (the total
// over max(n, m)); +Inf disables it. After each row, if the smallest
// reachable path cost already puts the distance above cutoff, the final
// total provably does too — every complete path passes through exactly one
// cell of the row and costs at least that cell's value, and both the sum
// and the division are monotone in floating point — and +Inf is returned.
// The running test is rowMin > cutoff·denom, which needs no division;
// because that product is rounded (a total one ulp above it can still
// divide back to exactly cutoff), the division confirms before anything is
// abandoned. +Inf also means the band admitted no alignment. prev and cur
// must have length ≥ m+1; their contents on entry do not matter.
//
// The inner loop carries no data-dependent branch: the three-way minimum
// and the row minimum are min instructions, the cells to the left and
// upper left travel in registers, and the point distance is written out
// for the three dimensions of the paper's video features (the test is on
// d, which a call never changes) in geom.DistSqFlat's own expression
// shape, so each cell holds the bits the textbook matrix does
// (dtwReference in the tests). Written out, not factored: a helper with
// the DistSqFlat fallback is over the inlining budget, and a call in this
// loop spills those registers — 9 ns a cell against 4.
//
// Band invariant. Both rows are set to +Inf once; after that a row only
// resets the one cell left of its band. That is enough because a band only
// moves right: row i reads the row above at [lo_i−1, hi_i], and
// lo_{i−1} ≤ lo_i, hi_i ≤ hi_{i−1}+1. The cell at lo_i−1 is therefore
// either inside the band above or the one that row reset, and the cell at
// hi_{i−1}+1, if read, has been written by no earlier row — every band
// before it ended further left still — so it holds the initial +Inf.
func dtwFlat(q []float64, n int, s []float64, m, d, window int, cutoff float64, prev, cur []float64) float64 {
	inf := math.Inf(1)
	if window >= 0 && abs(n-m) > window {
		return inf
	}
	if window < 0 || window > max(n, m) {
		// A band as wide as the longer side is the whole matrix, and
		// i+window below cannot overflow whatever a request asked for.
		window = max(n, m)
	}
	prev = prev[:m+1]
	cur = cur[:m+1]
	for j := range prev {
		prev[j], cur[j] = inf, inf
	}
	prev[0] = 0
	denom := float64(max(n, m))
	limit := cutoff * denom
	for i := 1; i <= n; i++ {
		lo, hi := max(1, i-window), min(m, i+window)
		qp := q[(i-1)*d : i*d]
		sp := s[(lo-1)*d : hi*d]
		cur[lo-1] = inf
		diag, left := prev[lo-1], inf
		rowMin := inf
		for j := lo; j <= hi; j++ {
			var sq float64
			if d == 3 {
				d0, d1, d2 := qp[0]-sp[0], qp[1]-sp[1], qp[2]-sp[2]
				sq = d0*d0 + d1*d1 + d2*d2
			} else {
				sq = geom.DistSqFlat(qp, sp[:d])
			}
			sp = sp[d:]
			// Cheapest predecessor: insertion (up, advance the query only),
			// match (diag, advance both), deletion (left, advance the data
			// only).
			up := prev[j]
			cell := math.Sqrt(sq) + min(min(up, diag), left)
			cur[j] = cell
			rowMin = min(rowMin, cell)
			diag, left = up, cell
		}
		if rowMin > limit && rowMin/denom > cutoff {
			return inf
		}
		prev, cur = cur, prev
	}
	return prev[m]
}
