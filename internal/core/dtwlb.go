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

// dtwScratch is the pooled workspace of DTW evaluation against one query:
// the dynamic programming row, flat copies for the point-slice entry point,
// one partition's envelope-rect union, and the LB_Keogh suffix sums handed
// from the bound to the dynamic program. It lives inside searchScratch so
// the whole DTW query path shares the search pool's zero-allocation
// discipline; the query's envelopes, which it only reads, are a dtwEnv.
type dtwScratch struct {
	row []float64 // the DP row array, len n+1

	qbuf, sbuf []float64 // flat copies for the []geom.Point entry point

	// rectLo/rectHi accumulate one partition's envelope-rect union.
	rectLo, rectHi []float64

	// keoghSuf[j] is the sum of the LB_Keogh terms of data positions j and
	// later, of the last sequence lbKeogh bounded to the end (len m+1,
	// keoghSuf[m] = 0): what dtwFlat's rows still to come must cost.
	keoghSuf []float64
}

// dtwEnv is a query's Sakoe–Chiba envelopes under the window in force,
// built once per query (Prepared) and read by every bound of every shard.
// Position i's bounds occupy envLo/envHi[i*d:(i+1)*d] (bounding rect of
// the query over [i−w, i+w] clamped); sufLo/sufHi[i*d:(i+1)*d] holds the
// suffix envelope over [i, n−1], consulted for data positions at or past
// the query's end. envN/envD/envW are the query shape the arrays were
// built for.
type dtwEnv struct {
	envLo, envHi []float64
	sufLo, sufHi []float64
	envN, envD   int
	envW         int

	// blk holds one dimension's block-wise extrema while the envelopes are
	// built: minima and maxima from each position to its block's start,
	// then to its block's end (len 4n).
	blk []float64
}

// buildEnvelopes fills the per-position envelope arrays for the query in
// qflat (n points of dimension d) under window w — O(n·d) total,
// independent of w, with no data-dependent branch. For w < 0 every
// envelope is the full query bounding rect; the arrays are still filled so
// consumers need no special case.
//
// A window [i−w, i+w] is 2w+1 positions long, so cut into blocks of 2w+1 it
// meets at most two, and its extremum is that of its part in the one it
// starts in — the block-wise extremum from i−w to that block's end — and of
// its part in the next — from the next block's start to i+w (van Herk and
// Gil–Werman). A window clamped on the left is a prefix, inside the first
// block; one clamped on the right is the suffix envelope from max(0, i−w).
// Every value is one of the window's coordinates, so the envelopes are the
// sliding extrema exactly, up to which of −0 and +0 a window holding both
// reports. No distance can see that sign: every consumer squares a gap
// (geom.GapSq, under MinDistPointSqFlat and MinDistSqLH), and a bound of −0
// instead of +0 changes a difference only where it is zero, into the other
// zero, which the gap's max with 0 and its square both drop.
func (e *dtwEnv) buildEnvelopes(qflat []float64, n, d, w int) {
	e.envLo = ensureFloats(e.envLo, n*d)
	e.envHi = ensureFloats(e.envHi, n*d)
	e.sufLo = ensureFloats(e.sufLo, n*d)
	e.sufHi = ensureFloats(e.sufHi, n*d)
	e.blk = ensureFloats(e.blk, 4*n)
	envLo, envHi, sufLo, sufHi := e.envLo, e.envHi, e.sufLo, e.sufHi
	preLo, preHi, postLo, postHi := e.blk[:n], e.blk[n:2*n], e.blk[2*n:3*n], e.blk[3*n:]
	inf := math.Inf(1)

	// Suffix envelopes: one backward scan per dimension.
	for k := 0; k < d; k++ {
		lo, hi := inf, -inf
		for i := n - 1; i >= 0; i-- {
			v := qflat[i*d+k]
			lo, hi = min(lo, v), max(hi, v)
			sufLo[i*d+k], sufHi[i*d+k] = lo, hi
		}
	}

	e.envN, e.envD, e.envW = n, d, w
	if w < 0 || w > n {
		// Every window reaches past both ends (and 2w+1 cannot overflow).
		w = n
	}
	for k := 0; k < d && w < n; k++ {
		for bs := 0; bs < n; bs += 2*w + 1 {
			be := min(bs+2*w+1, n)
			lo, hi := inf, -inf
			for t := bs; t < be; t++ {
				v := qflat[t*d+k]
				lo, hi = min(lo, v), max(hi, v)
				preLo[t], preHi[t] = lo, hi
			}
			lo, hi = inf, -inf
			for t := be - 1; t >= bs; t-- {
				v := qflat[t*d+k]
				lo, hi = min(lo, v), max(hi, v)
				postLo[t], postHi[t] = lo, hi
			}
		}
		for i := 0; i < min(w, n-w); i++ {
			envLo[i*d+k], envHi[i*d+k] = preLo[i+w], preHi[i+w]
		}
		for i := w; i < n-w; i++ {
			envLo[i*d+k] = min(postLo[i-w], preLo[i+w])
			envHi[i*d+k] = max(postHi[i-w], preHi[i+w])
		}
	}
	for i := max(0, n-w); i < n; i++ {
		o := max(0, i-w) * d
		copy(envLo[i*d:(i+1)*d], sufLo[o:o+d])
		copy(envHi[i*d:(i+1)*d], sufHi[o:o+d])
	}
}

// envRow returns the envelope bounds governing data position j: the
// per-position envelope for j inside the query's length, the suffix
// envelope from max(0, j−w) for positions past it (the allowed query
// range there is [j−w, n−1]). buildEnvelopes must have run.
func (e *dtwEnv) envRow(j int) (lo, hi []float64) {
	n, d, w := e.envN, e.envD, e.envW
	if j < n {
		return e.envLo[j*d : (j+1)*d], e.envHi[j*d : (j+1)*d]
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
	return e.sufLo[i*d : (i+1)*d], e.sufHi[i*d : (i+1)*d]
}

// dtwIndexLB is the envelope-vs-MBR kernel: a lower bound on the
// normalized DTW distance between the query, whose envelopes are e, and
// the stored sequence g, computed from g's partition MBRs
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
func (ds *dtwScratch) dtwIndexLB(e *dtwEnv, g *Segmented) float64 {
	n, d, w := e.envN, e.envD, e.envW
	m := g.numPoints()
	if w >= 0 && abs(n-m) > w {
		return math.Inf(1)
	}
	step := m // spans any MBR: an unconstrained window, or one wider than g
	if w >= 0 && w < m {
		step = 2*w + 1
	}
	ds.rectLo = ensureFloats(ds.rectLo, d)
	ds.rectHi = ensureFloats(ds.rectHi, d)
	minMD := math.Inf(1)
	var weighted float64
	for t := range g.MBRs {
		p := &g.MBRs[t]
		// EnvRect_p: union of the envelopes of p's data positions.
		lo, hi := e.envRow(p.Start)
		copy(ds.rectLo[:d], lo)
		copy(ds.rectHi[:d], hi)
		for j := p.Start; j < p.End-1; {
			j = min(j+step, p.End-1)
			lo, hi := e.envRow(j)
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
// order and B2 a sum MBR by MBR, and bound·((1−u)/(1+u))^(n+3m+d/2+3) ≤
// distance, u = 2⁻⁵³, of which 1 − 4u·(n+3m+d+4) is below. The proof is in
// DESIGN "Rounding".
func dtwIndexSlack(n, m, d int) float64 {
	return 1 - float64(n+3*m+d+4)*0x1p-51
}

// lbKeogh is the multidimensional LB_Keogh refinement bound: the summed
// distance from the stored sequence's raw points to the query's envelopes e,
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
func (ds *dtwScratch) lbKeogh(e *dtwEnv, g *Segmented, cutoff float64) float64 {
	n, d := e.envN, e.envD
	m := g.numPoints()
	denom := float64(max(n, m))
	limit := cutoff * denom
	ds.keoghSuf = ensureFloats(ds.keoghSuf, m+1)
	suf := ds.keoghSuf
	var sum float64
	for j := 0; j < m; j++ {
		lo, hi := e.envRow(j)
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
// sum meets a cutoff. In real arithmetic the sum never exceeds the total (a
// path leaves row j through a cell worth at least rowMin and then pays at
// least each later row's LB_Keogh term); in float64 every addition of the
// total rounds relative to the running total, the cost so far included, so
// the whole sum is shrunk and not the suffix alone:
// (rowMin + suffix)·((1−u)/(1+u))^(n+2m+d/2+2) ≤ total, u = 2⁻⁵³, of which
// 1 − 4u·(n+2m+d+4) is below. The proof is in DESIGN "Rounding".
func cascadeSlack(n, m, d int) float64 {
	return 1 - float64(n+2*m+d+4)*0x1p-51
}

// dtwFlat is the dynamic time warping core over columnar point storage:
// the dynamic program over the Sakoe–Chiba band in one row array, two data
// rows per pass, returning the unnormalized total path cost. cutoff is a
// normalized distance (the total over max(n, m)); +Inf disables it.
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
// alignment. row must have length ≥ n+1; its contents on entry do not
// matter.
//
// Two rows per pass. A cell waits on the one to its left, so a row is one
// serial chain of min and add; a pass runs rows j and j+1 side by side,
// cell i of both in one step, so two chains interleave and each query
// point is loaded once for both. Row j's cells never leave registers: row
// j+1 reads one as its up and, a step later, as its diag. Only row j+1 is
// stored, in place in the one row array — its cell i over row j−1's, after
// row j has read that as its up (row j's diag is the same cell one step
// earlier, carried in a register). Row j+1's band starts and ends at most
// one cell right of row j's: a prologue computes row j's first cell alone,
// an epilogue row j+1's last, whose up, past row j's band, is +Inf. Both
// rows keep their own minimum and are checked in row order, so a program
// abandoned after row j still is, at most one row later. An odd m starts
// with a lone first row: its row above is +Inf but for the corner 0, so it
// is a running sum of its distances, smallest at its first cell.
//
// The inner loop carries no data-dependent branch. Its minima run on the
// cells' bit patterns — a cell is a sum of square roots, +0 or above, never
// −0 or NaN with finite coordinates, and such floats order like their bits
// (as in sweepWindows) — so a minimum is a compare and a conditional move,
// not a float min's two MINSDs and a POR. The point distances are written
// out for the three dimensions of the paper's video features (the test is
// on d, which a call never changes) in geom.DistSqFlat's own expression
// shape, so each cell holds the bits the textbook matrix does (dtwReference
// in the tests); other dimensions and the cells outside the loop call
// DistSqFlat itself. The minimum takes left last: left is the cell just
// computed, and min(min(up, diag), left) keeps one min on that loop-carried
// chain where min(min(left, diag), up) puts two.
//
// Band invariant. The array is set to +Inf once, but for the corner of row
// 0 when a pass reads that row, and column 0 is set back to +Inf once read.
// Nothing else is reset, because a band only moves right: row j reads the
// row above at [lo_j−1, hi_j], where lo_j = max(1, j−w), so lo_j−1 is column
// 0 or, once the band has left it, lo_{j−1}, the first cell of the band
// above; and hi_j ≤ hi_{j−1}+1, where the cell at hi_{j−1}+1, if read, has
// been written by no earlier row — every band before it ended further left
// still — and holds the initial +Inf. Within a pass the same holds in
// registers: row j+1's first cell takes as its diag the prologue's cell or,
// in column 0, +Inf.
func dtwFlat(q []float64, n int, s []float64, m, d, window int, cutoff float64, suf, row []float64) float64 {
	inf := math.Inf(1)
	if window >= 0 && abs(n-m) > window {
		return inf
	}
	if window < 0 || window > max(n, m) {
		// A band as wide as the longer side is the whole matrix, and
		// j+window below cannot overflow whatever a request asked for.
		window = max(n, m)
	}
	row = row[:n+1]
	for i := range row {
		row[i] = inf
	}
	denom := float64(max(n, m))
	limit := cutoff * denom
	slack := cascadeSlack(n, m, d)
	// over reports whether row j, of smallest cell rowMin, abandons.
	over := func(j int, rowMin uint64) bool {
		lb := math.Float64frombits(rowMin)
		if suf != nil {
			lb = (lb + suf[j]) * slack
		}
		return lb > limit && lb/denom > cutoff
	}
	j := 0 // rows done
	if m%2 == 1 {
		var cell float64
		for i := 1; i <= min(n, 1+window); i++ {
			cell += math.Sqrt(geom.DistSqFlat(q[(i-1)*d:i*d], s[:d]))
			row[i] = cell
		}
		if over(1, math.Float64bits(row[1])) {
			return inf
		}
		j = 1
	} else {
		row[0] = 0
	}
	var a0, a1, a2, b0, b1, b2 float64 // rows A and B's data points when d == 3
	for ; j < m; j += 2 {
		// Rows A = j+1 and B = j+2, 1-based.
		loA, hiA := max(1, j+1-window), min(n, j+1+window)
		loB, hiB := max(1, j+2-window), min(n, j+2+window)
		sa, sb := s[j*d:(j+1)*d], s[(j+1)*d:(j+2)*d]
		if d == 3 {
			a0, a1, a2 = sa[0], sa[1], sa[2]
			b0, b1, b2 = sb[0], sb[1], sb[2]
		}
		// diag of row B is row A's cell to the left, leftA, throughout.
		diagA, leftA, minA := math.Float64bits(row[loA-1]), infBits, infBits
		leftB, minB := infBits, infBits
		row[0] = inf // column 0 below row 0
		if loB > loA {
			up := math.Float64bits(row[loA])
			a := math.Float64bits(math.Sqrt(geom.DistSqFlat(q[(loA-1)*d:loA*d], sa)) + math.Float64frombits(min(up, diagA)))
			minA, diagA, leftA = a, up, a
		}
		o := (loB - 1) * d
		for i := loB; i <= hiA; i++ {
			var sqA, sqB float64
			if d == 3 {
				qp := q[o : o+3 : o+3]
				q0, q1, q2 := qp[0], qp[1], qp[2]
				x0, x1, x2 := q0-a0, q1-a1, q2-a2
				y0, y1, y2 := q0-b0, q1-b1, q2-b2
				sqA = x0*x0 + x1*x1 + x2*x2
				sqB = y0*y0 + y1*y1 + y2*y2
			} else {
				sqA, sqB = geom.DistSqFlat(q[o:o+d], sa), geom.DistSqFlat(q[o:o+d], sb)
			}
			o += d
			// Cheapest predecessor: deletion (up, advance the data only),
			// match (diag, advance both), insertion (left, advance the
			// query only).
			up := math.Float64bits(row[i])
			a := math.Float64bits(math.Sqrt(sqA) + math.Float64frombits(min(min(up, diagA), leftA)))
			bv := math.Sqrt(sqB) + math.Float64frombits(min(min(a, leftA), leftB))
			row[i] = bv
			b := math.Float64bits(bv)
			minA, minB = min(minA, a), min(minB, b)
			diagA, leftA, leftB = up, a, b
		}
		if hiB > hiA {
			b := math.Float64bits(math.Sqrt(geom.DistSqFlat(q[(hiB-1)*d:hiB*d], sb)) + math.Float64frombits(min(leftA, leftB)))
			row[hiB] = math.Float64frombits(b)
			minB = min(minB, b)
		}
		if over(j+1, minA) || over(j+2, minB) {
			return inf
		}
	}
	return row[n]
}
