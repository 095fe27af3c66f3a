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
// per-position query envelope arrays, the deque used to build them, and the
// LB_Keogh suffix sums handed from the bound to the dynamic program.
// It lives inside searchScratch so the whole DTW query path shares the
// search pool's zero-allocation discipline.
type dtwScratch struct {
	prev, cur []float64 // DP rows, len n+1

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

	// keoghSuf[j] is the sum of the LB_Keogh terms of data positions j and
	// later, of the last sequence lbKeogh bounded to the end (len m+1,
	// keoghSuf[m] = 0): what dtwFlat's rows still to come must cost.
	keoghSuf []float64
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
	return max(minMD, weighted/float64(max(n, m))) * dtwIndexSlack(n, m, d)
}

// dtwIndexSlack is the factor dtwIndexLB shrinks max(B1, B2) by before the
// bound meets a cutoff. In real arithmetic neither exceeds the distance (the
// bound chain above); in float64 the distance is one recursive sum in path
// order — each of its at most n+m additions rounds by a relative (1±u),
// u = 2⁻⁵³, of the running total — while B2 is summed MBR by MBR, one
// product and one addition apiece, at most 2m roundings, and each side ends
// in a division. Per term, the computed envelope-to-MBR distance is at most
// the computed point distance times ((1+u)/(1−u))^(d/2+1), as in alignSlack:
// the per-axis gap is a monotone function of the per-axis difference, so
// only the d additions, the squares and the sqrt can disagree. So
// bound·((1−u)/(1+u))^(n+3m+d/2+3) ≤ distance, and 1 − 4u·(n+3m+d+4) is
// below that factor with room for its own rounding and the
// multiplication's. Without it, a term 10¹⁶ times the rest — a spike that
// swallows the small terms of one sum and not of the other — put the bound
// a few ulps above the distance, and a range search at ε = distance, or a
// kNN under a bound at it, dismissed the sequence.
func dtwIndexSlack(n, m, d int) float64 {
	return 1 - float64(n+3*m+d+4)*0x1p-51
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
//
// A bound summed to the end leaves its terms behind as suffix sums
// (keoghSuf), for the dynamic program that follows to abandon on: the sum
// says what the whole sequence must cost, a suffix what the rows not yet
// computed must.
func (ds *dtwScratch) lbKeogh(g *Segmented, cutoff float64) float64 {
	n, d := ds.envN, ds.envD
	m := g.Seq.Len()
	denom := float64(max(n, m))
	limit := cutoff * denom
	ds.keoghSuf = ensureFloats(ds.keoghSuf, m+1)
	suf := ds.keoghSuf
	var sum float64
	for j := 0; j < m; j++ {
		lo, hi := ds.envRow(j)
		o := j * d
		term := math.Sqrt(geom.MinDistPointSqFlat(g.Flat[o:o+d], lo, hi))
		suf[j] = term
		sum += term
		if sum > limit && sum/denom > cutoff {
			return math.Inf(1)
		}
	}
	suf[m] = 0
	for j := m - 1; j >= 0; j-- {
		suf[j] += suf[j+1]
	}
	return sum / denom
}

// cascadeSlack is the factor dtwFlat shrinks rowMin + suffix by before the
// sum meets a cutoff. In real arithmetic the sum never exceeds the total:
// a warping path leaves row j through a cell worth at least rowMin and then
// takes at least one step in each later row, a step in row t matching data
// point t with a query point inside Env_t, at a cost no smaller than that
// row's LB_Keogh term. In float64 the total is one recursive sum in path
// order — each of its at most n+m additions rounds by a relative (1±u),
// u = 2⁻⁵³, of the running total, the cost so far included, which is why the
// whole sum is shrunk and not the suffix alone: steps that a huge cost so far
// absorbs add nothing to the total, and their suffix must not either. The
// suffix is summed back to front, at most m roundings, and added to rowMin
// with one more. Per term, the computed point-to-envelope distance is at
// most the computed point distance times ((1+u)/(1−u))^(d/2+1), as in
// alignSlack: the per-axis gap is a monotone function of the per-axis
// difference, so only the d additions, the squares and the sqrt can
// disagree. So (rowMin + suffix)·((1−u)/(1+u))^(n+2m+d/2+2) ≤ total, and
// 1 − 4u·(n+2m+d+4) is below that factor with room for its own rounding and
// the multiplication's.
func cascadeSlack(n, m, d int) float64 {
	return 1 - float64(n+2*m+d+4)*0x1p-51
}

// dtwFlat is the dynamic time warping core over columnar point storage:
// the two-row dynamic program over the Sakoe–Chiba band, returning the
// unnormalized total path cost. cutoff is a normalized distance (the total
// over max(n, m)); +Inf disables it.
//
// Rows run over the data side s, cells over the query q — the transpose of
// the textbook matrix, holding the same bits: a cell is its point distance
// plus the minimum of three predecessors, neither of which depends on which
// sequence is called the row ((a−b)² = (b−a)², and a minimum has no order),
// and the band |i−j| ≤ window and the denominator max(n, m) are symmetric.
// Rows over the data are what lets LB_Keogh, a sum over data points, say
// what the rows still to come must cost: suf, when not nil, is lbKeogh's
// suffix sums for s (len m+1).
//
// After each row j, if the smallest reachable path cost plus suf[j] — shrunk
// by cascadeSlack, see there — already puts the distance above cutoff, the
// final total provably does too: every complete path passes through the
// row, costs at least its cheapest cell up to there and at least the
// LB_Keogh terms of the rows after it, and both the sum and the division are
// monotone in floating point; +Inf is returned. Without suf the bound is the
// row minimum itself, unshrunk. The running test is bound > cutoff·denom,
// which needs no division; because that product is rounded (a total one ulp
// above it can still divide back to exactly cutoff), the division confirms
// before anything is abandoned. +Inf also means the band admitted no
// alignment. prev and cur must have length ≥ n+1; their contents on entry do
// not matter.
//
// The inner loop carries no data-dependent branch: the three-way minimum
// and the row minimum are min instructions, the cells to the left and
// upper left travel in registers, and the point distance is written out
// for the three dimensions of the paper's video features (the test is on
// d, which a call never changes) in geom.DistSqFlat's own expression
// shape, so each cell holds the bits the textbook matrix does
// (dtwReference in the tests). Written out, not factored: a helper with
// the DistSqFlat fallback is over the inlining budget, and a call in this
// loop spills those registers — 9 ns a cell against 4. The minimum takes
// left last: left is the cell just computed, and min(min(up, diag), left)
// keeps one min on that loop-carried chain where min(min(left, diag), up)
// puts two.
//
// Band invariant. Both rows are set to +Inf once; after that a row only
// resets the one cell left of its band. That is enough because a band only
// moves right: row j reads the row above at [lo_j−1, hi_j], and
// lo_{j−1} ≤ lo_j, hi_j ≤ hi_{j−1}+1. The cell at lo_j−1 is therefore
// either inside the band above or the one that row reset, and the cell at
// hi_{j−1}+1, if read, has been written by no earlier row — every band
// before it ended further left still — so it holds the initial +Inf.
func dtwFlat(q []float64, n int, s []float64, m, d, window int, cutoff float64, suf, prev, cur []float64) float64 {
	inf := math.Inf(1)
	if window >= 0 && abs(n-m) > window {
		return inf
	}
	if window < 0 || window > max(n, m) {
		// A band as wide as the longer side is the whole matrix, and
		// j+window below cannot overflow whatever a request asked for.
		window = max(n, m)
	}
	prev = prev[:n+1]
	cur = cur[:n+1]
	for i := range prev {
		prev[i], cur[i] = inf, inf
	}
	prev[0] = 0
	denom := float64(max(n, m))
	limit := cutoff * denom
	slack := cascadeSlack(n, m, d)
	for j := 1; j <= m; j++ {
		lo, hi := max(1, j-window), min(n, j+window)
		sp := s[(j-1)*d : j*d]
		qp := q[(lo-1)*d : hi*d]
		cur[lo-1] = inf
		diag, left := prev[lo-1], inf
		rowMin := inf
		for i := lo; i <= hi; i++ {
			var sq float64
			if d == 3 {
				d0, d1, d2 := qp[0]-sp[0], qp[1]-sp[1], qp[2]-sp[2]
				sq = d0*d0 + d1*d1 + d2*d2
			} else {
				sq = geom.DistSqFlat(qp[:d], sp)
			}
			qp = qp[d:]
			// Cheapest predecessor: deletion (up, advance the data only),
			// match (diag, advance both), insertion (left, advance the
			// query only).
			up := prev[i]
			cell := math.Sqrt(sq) + min(min(up, diag), left)
			cur[i] = cell
			rowMin = min(rowMin, cell)
			diag, left = up, cell
		}
		lb := rowMin
		if suf != nil {
			lb = (rowMin + suf[j]) * slack
		}
		if lb > limit && lb/denom > cutoff {
			return inf
		}
		prev, cur = cur, prev
	}
	return prev[n]
}
