package core

// The seed forms of Definition 5 and of phase 3: dnormCalc, which evaluates
// Dnorm per target (dnorm) and sweeps every window (sweep) with closures and
// Rect.MinDist, and phase3One, the phase-3 rule over one candidate with every
// query MBR evaluated. They are the readable statement of the algorithm and
// the references the kernels — sweepWindows, phase3Hits, knnSeqBound,
// refineOne — are held to, bit for bit.

import (
	"math"

	"repro/internal/geom"
)

// DnormResult is the outcome of one normalized-distance computation: the
// distance itself plus the window of data-sequence MBRs that realized it,
// which phase 3 of the search turns into a solution-interval fragment
// (Example 3: "SI = {all points contained in mbr1, mbr2} ∪ {first 2 points
// of mbr3}").
type DnormResult struct {
	// Dist is Dnorm(mbr_i(Q), mbr_j(S)).
	Dist float64
	// K and L are the inclusive MBR indices of the involved window.
	K, L int
	// PStart and PEnd delimit (half-open, in point indices of the data
	// sequence) exactly the points participating in the calculation,
	// including the partial slice of the marginal MBR.
	PStart, PEnd int
}

// dnormCalc evaluates Dnorm for every target MBR of one data sequence
// against one query MBR, reusing the per-MBR Dmbr values and count prefix
// sums. Build one per (query MBR, sequence) pair.
type dnormCalc struct {
	mbrs   []MBRInfo
	dists  []float64 // dists[t] = Dmbr(query MBR, mbrs[t])
	prefix []int     // prefix[t] = Σ_{s<t} count(s)
	wpre   []float64 // wpre[t] = Σ_{s<t} dists[s]·count(s)
	qCount int
}

func newDnormCalc(qRect geom.Rect, qCount int, g *Segmented) *dnormCalc {
	r := len(g.MBRs)
	c := &dnormCalc{
		mbrs:   g.MBRs,
		dists:  make([]float64, r),
		prefix: make([]int, r+1),
		wpre:   make([]float64, r+1),
		qCount: qCount,
	}
	for t := 0; t < r; t++ {
		c.dists[t] = qRect.MinDist(g.MBRs[t].Rect)
		c.prefix[t+1] = c.prefix[t] + g.MBRs[t].Count()
		c.wpre[t+1] = c.wpre[t] + c.dists[t]*float64(g.MBRs[t].Count())
	}
	return c
}

// countIn returns the total point count of MBRs [a, b] inclusive.
func (c *dnormCalc) countIn(a, b int) int { return c.prefix[b+1] - c.prefix[a] }

// weightedIn returns Σ_{t=a}^{b} dists[t]·count(t).
func (c *dnormCalc) weightedIn(a, b int) float64 { return c.wpre[b+1] - c.wpre[a] }

// dnorm computes Dnorm(query MBR, mbr_j) per Definition 5.
//
// When the target MBR holds at least as many points as the query MBR, the
// plain Dmbr is the answer (Example 2's prose). Otherwise neighboring MBRs
// are absorbed until the query's point count is covered: LD windows
// [k..l] with k ≤ j < l count MBRs k..l-1 fully and take only the first
// (qCount − Σ m) points of the marginal right MBR l; RD windows mirror
// with the marginal on the left. Dnorm is the minimum over all such
// windows; a sequence with fewer points than the query MBR has none, and
// its Dnorm is +Inf — no window of the query MBR's size lies inside it, so
// Lemma 3 says nothing of it (refineOne's role rule decides it instead).
func (c *dnormCalc) dnorm(j int) DnormResult {
	r := len(c.mbrs)
	mj := c.mbrs[j].Count()
	if mj >= c.qCount {
		return DnormResult{
			Dist: c.dists[j],
			K:    j, L: j,
			PStart: c.mbrs[j].Start, PEnd: c.mbrs[j].End,
		}
	}
	best := DnormResult{Dist: math.Inf(1)}

	// LD windows: marginal MBR on the right. For each left edge k ≤ j,
	// the right edge l is the smallest index with count[k..l] ≥ qCount;
	// the window is valid while l > j.
	for k := j; k >= 0; k-- {
		l := k
		for l < r && c.countIn(k, l) < c.qCount {
			l++
		}
		if l >= r {
			continue // not enough points to the right of k
		}
		if l <= j {
			break // windows for smaller k only shrink l further
		}
		interior := c.countIn(k, l-1) // full MBRs k..l-1
		partial := c.qCount - interior
		dist := (c.weightedIn(k, l-1) + c.dists[l]*float64(partial)) / float64(c.qCount)
		if dist < best.Dist {
			best = DnormResult{
				Dist: dist,
				K:    k, L: l,
				PStart: c.mbrs[k].Start,
				PEnd:   c.mbrs[l].Start + partial,
			}
		}
	}

	// RD windows: marginal MBR on the left. For each right edge q ≥ j,
	// the left edge p is the largest index with count[p..q] ≥ qCount;
	// the window is valid while p < j.
	for q := j; q < r; q++ {
		p := q
		for p >= 0 && c.countIn(p, q) < c.qCount {
			p--
		}
		if p < 0 {
			continue // not enough points to the left of q
		}
		if p >= j {
			break // windows for larger q only grow p further
		}
		interior := c.countIn(p+1, q) // full MBRs p+1..q
		partial := c.qCount - interior
		dist := (c.weightedIn(p+1, q) + c.dists[p]*float64(partial)) / float64(c.qCount)
		if dist < best.Dist {
			best = DnormResult{
				Dist: dist,
				K:    p, L: q,
				PStart: c.mbrs[p].End - partial,
				PEnd:   c.mbrs[q].End,
			}
		}
	}
	return best
}

// sweep enumerates every Dnorm window of the sequence exactly once — all
// LD windows (one per left edge with enough points to its right), all RD
// windows and every degenerate single-MBR case — and calls emit (when non-nil) for each window whose weighted
// distance is at most eps, returning the global minimum distance across
// all windows (which equals min_j Dnorm(j) — each per-target Dnorm is the
// minimum over the windows containing that target, so the two minima
// coincide, and a sequence has some Dnorm(j) ≤ eps exactly when some
// window qualifies). The union of qualifying windows is what phase 3
// needs for the solution interval, and the sweep computes it in O(r)
// where evaluating Dnorm(j) for every j costs O(r²).
//
// The production kernel is sweepWindows, which enumerates the same windows
// with identical arithmetic over the columnar Starts/dists/wpre arrays.
func (c *dnormCalc) sweep(eps float64, emit func(dist float64, pstart, pend int)) float64 {
	r := len(c.mbrs)
	best := math.Inf(1)
	consider := func(dist float64, pstart, pend int) {
		if dist < best {
			best = dist
		}
		if emit != nil && dist <= eps {
			emit(dist, pstart, pend)
		}
	}

	// Degenerate targets: big enough on their own.
	for j := 0; j < r; j++ {
		if c.mbrs[j].Count() >= c.qCount {
			consider(c.dists[j], c.mbrs[j].Start, c.mbrs[j].End)
		}
	}

	// LD windows: two-pointer over left edges; l(k) is non-decreasing in k.
	l := 0
	for k := 0; k < r; k++ {
		if l < k {
			l = k
		}
		for l < r && c.countIn(k, l) < c.qCount {
			l++
		}
		if l >= r {
			break // no left edge further right has enough points either
		}
		if l == k {
			continue // degenerate, handled above
		}
		interior := c.countIn(k, l-1)
		partial := c.qCount - interior
		dist := (c.weightedIn(k, l-1) + c.dists[l]*float64(partial)) / float64(c.qCount)
		consider(dist, c.mbrs[k].Start, c.mbrs[l].Start+partial)
	}

	// RD windows: two-pointer over right edges; the marginal left index
	// p(q) — the largest p with count[p..q] ≥ qCount — is non-decreasing.
	p := 0
	for q := 0; q < r; q++ {
		if c.countIn(0, q) < c.qCount {
			continue // not enough points up to q
		}
		for p+1 <= q && c.countIn(p+1, q) >= c.qCount {
			p++
		}
		if p == q {
			continue // degenerate, handled above
		}
		interior := c.countIn(p+1, q)
		partial := c.qCount - interior
		dist := (c.weightedIn(p+1, q) + c.dists[p]*float64(partial)) / float64(c.qCount)
		consider(dist, c.mbrs[p].End-partial, c.mbrs[q].End)
	}
	return best
}

// Dnorm computes the normalized distance between a query MBR (its
// rectangle and point count) and the j-th MBR of a segmented data
// sequence.
func Dnorm(qRect geom.Rect, qCount int, g *Segmented, j int) DnormResult {
	return newDnormCalc(qRect, qCount, g).dnorm(j)
}

// MinDnorm returns min_j Dnorm(qRect, qCount, g, j) — the quantity Lemma 3
// sandwiches between min Dmbr and D(Q,S). It runs the O(r) window sweep,
// whose minimum provably equals the minimum over per-target Dnorm values.
func MinDnorm(qRect geom.Rect, qCount int, g *Segmented) float64 {
	return newDnormCalc(qRect, qCount, g).sweep(math.Inf(-1), nil)
}

// phase3One is refineOne in the seed forms, every query MBR evaluated: for a
// candidate at least as long as the query, each query MBR's windows over it
// at eps, qualifying windows widened to full-query extent (see phase3Hits)
// into the solution interval; for a shorter one, the weighted bound of its
// own MBRs swept over the query (knnSeqBoundRef) at eps, the interval all of
// it.
func phase3One(qseg *Segmented, g *Segmented, qLen int, eps float64) (m Match, hit bool) {
	m = Match{Seq: g.Seq, MinDnorm: math.Inf(1)}
	if g.Seq.Len() < qLen {
		m.MinDnorm, _ = knnSeqBoundRef(qseg, g)
		if hit = m.MinDnorm <= eps; hit {
			m.Interval.Add(PointRange{Start: 0, End: g.Seq.Len()})
		}
		return m, hit
	}
	for _, qm := range qseg.MBRs {
		calc := newDnormCalc(qm.Rect, qm.Count(), g)
		minDist := calc.sweep(eps, func(dist float64, pstart, pend int) {
			hit = true
			start := pstart - qm.Start
			end := pend + (qLen - qm.End)
			if start < 0 {
				start = 0
			}
			if end > g.Seq.Len() {
				end = g.Seq.Len()
			}
			m.Interval.Add(PointRange{Start: start, End: end})
		})
		if minDist < m.MinDnorm {
			m.MinDnorm = minDist
		}
	}
	return m, hit
}
