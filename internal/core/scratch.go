package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// searchScratch is the reusable workspace of one query execution on one
// database: the phase-2 candidate buffers, the kNN walk, and the phase-3
// Dnorm, alignment and DTW arrays. The query side — its segmentation, flat
// points and envelopes — is not here but in the query's Prepared, which
// every shard of a scatter reads and none writes. Instances cycle through
// scratchPool, so a steady stream of queries runs without allocating —
// every buffer is grown to the high-water mark once and then reused.
// Nothing in a search result may alias scratch memory (results hold their
// own allocations), which is what makes returning the scratch to the pool
// safe. The pool invariant: hits and idBits are all-zero and ids is empty
// whenever the scratch is not inside a search.
type searchScratch struct {
	// Phase-2 buffers. refs holds the raw index hits of one probe. hits is
	// what phase 2 learned, kept for phase 3: one row of hitWords words per
	// sequence id, bit i set when query MBR i has an index entry of that
	// sequence within Dmbr ≤ ε. ids lists the sequences with a non-zero
	// row, each once, in first-touch order until sortIDs leaves them
	// ascending. Every row is zero while the scratch sits in the pool
	// (clearHits), so a search only ever touches its candidates' rows.
	// idBits is sortIDs' bitmap, one bit per sequence id; it is non-zero
	// only inside that call.
	refs     []rtree.Ref
	hits     []uint64
	hitWords int
	ids      []uint32
	idBits   []uint64

	// near is the kNN search's best-first index walk; heap holds the
	// candidates it has reached, ordered by lower bound.
	near rtree.Nearest
	heap []knnCand

	p3 phase3Scratch

	// align holds the alignment kernel's running sums and offset bounds.
	align alignScratch

	// dtw holds the DTW workspace: the DP row, flat copies, and the
	// Sakoe–Chiba envelope arrays of the metric search path.
	dtw dtwScratch

	// qpts and spts are the scan's point views of the query and of one
	// sequence, for the reference kernels that take points.
	qpts, spts []geom.Point
}

// phase3Scratch holds the per-candidate Dnorm arrays and the candidate's
// solution interval as phase3Hits leaves it: iv is reset by every call and
// its ranges are scratch memory, so a caller keeping a hit copies them out
// (slabRanges).
type phase3Scratch struct {
	sq    []float64    // squared Dmbr per target MBR (MinDistSqBatch output)
	dists []float64    // sqrt(sq): the Dmbr values the window sweep consumes
	wpre  []float64    // weighted-distance prefix sums (len r+1)
	wins  []PointRange // point ranges of the qualifying windows of one pair
	iv    IntervalSet  // solution interval of the last candidate evaluated
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func getScratch() *searchScratch { return scratchPool.Get().(*searchScratch) }
func putScratch(sc *searchScratch) {
	sc.clearHits()
	scratchPool.Put(sc)
}

// ensureFloats returns s resized to length n, reallocating only when the
// capacity is insufficient.
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// beginHits sizes the hit table and the id bitmap for nseq sequence ids
// and nq query MBRs and empties the candidate list. Growing reallocates
// (zeroed); reslicing exposes words the pool invariant already keeps zero.
func (sc *searchScratch) beginHits(nseq, nq int) {
	sc.clearHits()
	sc.hitWords = (nq + 63) / 64
	sc.hits = ensureZeroWords(sc.hits, nseq*sc.hitWords)
	sc.idBits = ensureZeroWords(sc.idBits, (nseq+63)/64)
}

// ensureZeroWords returns s resized to length n, for a slice whose whole
// capacity is kept zero between uses.
func ensureZeroWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// hitRow returns the query-MBR bitset of sequence id.
func (sc *searchScratch) hitRow(id uint32) []uint64 {
	o := int(id) * sc.hitWords
	return sc.hits[o : o+sc.hitWords]
}

// markHits records that query MBR qi hit every sequence owning one of
// refs (mark).
func (sc *searchScratch) markHits(refs []rtree.Ref, qi int) {
	for _, ref := range refs {
		id, _ := ref.Unpack()
		sc.mark(id, qi)
	}
}

// mark records that query MBR qi hit sequence id, collecting the id the
// first time any bit of its row is set.
func (sc *searchScratch) mark(id uint32, qi int) {
	row := sc.hitRow(id)
	var seen uint64
	for _, x := range row {
		seen |= x
	}
	if seen == 0 {
		sc.ids = append(sc.ids, id)
	}
	row[qi>>6] |= 1 << (qi & 63)
}

// firstHit marks sequence id in a one-word-per-row table (the kNN walk's
// set of sequences already bounded) and reports whether it was unmarked.
func (sc *searchScratch) firstHit(id uint32) bool {
	row := sc.hitRow(id)
	if row[0] != 0 {
		return false
	}
	row[0] = 1
	sc.ids = append(sc.ids, id)
	return true
}

// sortIDs leaves the collected candidate ids ascending without comparing
// them: one bit per id (ids are distinct and below beginHits' nseq), then a
// walk over the touched words of the bitmap that reads the ids back in
// order and zeroes each word as it goes. Linear in the candidates plus one
// word per 64 ids of the span they cover.
func (sc *searchScratch) sortIDs() {
	ids := sc.ids
	if len(ids) < 2 {
		return
	}
	lo, hi := ids[0]>>6, ids[0]>>6
	for _, id := range ids {
		w := id >> 6
		sc.idBits[w] |= 1 << (id & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	n := 0
	for w := lo; w <= hi; w++ {
		for x := sc.idBits[w]; x != 0; x &= x - 1 {
			ids[n] = w<<6 | uint32(bits.TrailingZeros64(x))
			n++
		}
		sc.idBits[w] = 0
	}
}

// clearHits zeroes the rows of the collected candidates and empties the
// list, restoring the all-zero table the next search starts from.
func (sc *searchScratch) clearHits() {
	for _, id := range sc.ids {
		clear(sc.hitRow(id))
	}
	sc.ids = sc.ids[:0]
}

// phase3Hits is the phase-3 kernel for a candidate at least as long as the
// query: Dnorm pruning and solution-interval assembly over columnar data
// only. hits is the candidate's row of the phase-2 hit table; query MBRs
// whose bit is clear are skipped.
//
// Skipping loses nothing. Every Dnorm window distance is a convex
// combination of the pair's Dmbr values (Definition 5, Lemmas 2–3), so a
// pair without an index hit — every Dmbr above phase 2's radius, by the same
// squared-space arithmetic MinDistSqBatch uses — has no window within it in
// real arithmetic: it adds nothing to the solution interval and cannot be
// the minimum of a match, and the pair that carries a sequence within ε is
// always hit (dReach). Only a window within rounding of the threshold could
// tell the two apart, and the indexed and index-free paths mark the same
// pairs (Unindexed), so they agree on it too.
//
// For each evaluated pair the Dmbr row is computed over the candidate's
// Lo/Hi in squared space with one sqrt per target, then sweepWindows
// visits every window once. A window qualifies at reach, phase 2's radius
// (dReach), plus the pair's cancellation margin over its c points:
// cancelMargin(r, wpre[r])/c, the most a window taken as a difference of the
// running sums wpre can lie above the real one (knnSeqBound's argument) — so
// the window of the best alignment, at most D in real arithmetic, qualifies
// whenever the computed D is within ε. Each qualifying window contributes its
// points to the solution interval (Example 3), widened to full-query extent:
// the window covers the data matching query offsets [qm.Start, qm.End), and
// the Definition 6 windows containing it are len(Q) long, so the match
// region extends left by the query prefix before this MBR and right by
// the suffix after it.
//
// The running sums restart behind any MBR whose weighted Dmbr would take them
// past the largest float64 — a Dmbr whose square overflowed is +Inf — and the
// MBRs between two restarts are swept as a run of their own (sweepRun): one
// prefix across such an MBR would make every window right of it Inf − Inf.
// A window across a restart is +Inf in the scan's arithmetic as well (its sum
// of point distances overflows too), so the runs lose no window that could
// qualify.
//
// evals counts the Dmbr values computed. The interval is left in p3.iv (see
// phase3Scratch) and hit reports whether it is non-empty; minDnorm is the
// pair minimum either way.
func phase3Hits(qmbrs []MBRInfo, hits []uint64, p3 *phase3Scratch, g *Segmented, qLen int, reach float64) (minDnorm float64, hit bool, evals int) {
	minDnorm = math.Inf(1)
	p3.iv.ranges = p3.iv.ranges[:0]
	starts := g.Starts
	r := len(starts) - 1
	n := int(starts[r])
	p3.sq = ensureFloats(p3.sq, r)
	p3.dists = ensureFloats(p3.dists, r)
	p3.wpre = ensureFloats(p3.wpre, r+1)
	sq, dists, wpre := p3.sq, p3.dists, p3.wpre
	for qi := range qmbrs {
		if hits[qi>>6]&(1<<(qi&63)) == 0 {
			continue
		}
		qm := &qmbrs[qi]
		geom.MinDistSqBatch(qm.Rect.L, qm.Rect.H, g.Lo, g.Hi, sq)
		evals += r
		p3.wins = p3.wins[:0]
		a := 0 // first MBR of the current run
		wpre[0] = 0
		for t := range dists {
			dists[t] = math.Sqrt(sq[t])
			w := dists[t] * float64(starts[t+1]-starts[t])
			if s := wpre[t] + w; s <= math.MaxFloat64 {
				wpre[t+1] = s
				continue
			}
			minDnorm = p3.sweepRun(starts, a, t, qm.Count(), reach, minDnorm)
			if w <= math.MaxFloat64 {
				a, wpre[t], wpre[t+1] = t, 0, w
			} else {
				a, wpre[t+1] = t+1, 0
			}
		}
		minDnorm = p3.sweepRun(starts, a, r, qm.Count(), reach, minDnorm)
		for _, w := range p3.wins {
			w.Start -= qm.Start
			w.End += qLen - qm.End
			if w.Start < 0 {
				w.Start = 0
			}
			if w.End > n {
				w.End = n
			}
			p3.iv.Add(w)
		}
	}
	return minDnorm, len(p3.iv.ranges) > 0, evals
}

// sweepRun sweeps the windows of qc points inside MBRs [a, b) of the pair in
// p3 — a run whose running sums p3.wpre start from 0 at a — at reach plus the
// run's cancellation margin, appends the qualifying ones to p3.wins and
// returns the smaller of best and the run's minimum window.
func (p3 *phase3Scratch) sweepRun(starts []int32, a, b, qc int, reach, best float64) float64 {
	if a == b {
		return best
	}
	var m float64
	thr := reach + cancelMargin(b-a, p3.wpre[b])/float64(qc)
	m, p3.wins = sweepWindows(starts[a:b+1], p3.dists[a:b], p3.wpre[a:b+1], qc, thr, p3.wins)
	if m < best {
		return m
	}
	return best
}

// cancelMargin is how far a Dnorm window computed as a difference of running
// sums over r MBRs, the largest of them total, can lie above the real window
// times its point count: each of the at most r additions between the
// difference's ends is off by up to u·total whatever the window's own size,
// and 2u = 2⁻⁵² covers the roundings of the margin itself. The proof, and
// its precondition that no term is negative, are in DESIGN "Rounding".
func cancelMargin(r int, total float64) float64 { return float64(r) * 0x1p-52 * total }

// slabRanges copies rs — a hit's ranges, still in phase3Scratch — to the
// end of slab, the one []PointRange the matches of an answer share, and
// returns them as an interval with cap == len: a caller's Add that has to
// grow it reallocates and can never write into the next match's ranges.
// A full slab is succeeded by a fresh chunk of one range per remaining
// candidate (its unused tail stays under one candidate count); matches
// already handed out keep the old chunk.
func slabRanges(slab, rs []PointRange, remaining int) (IntervalSet, []PointRange) {
	if cap(slab)-len(slab) < len(rs) {
		slab = make([]PointRange, 0, max(len(rs), remaining))
	}
	n := len(slab)
	slab = append(slab, rs...)
	return IntervalSet{ranges: slab[n:len(slab):len(slab)]}, slab
}

// sweepWindows is Definition 5's window sweep over columnar arrays: MBR t
// covers points [starts[t], starts[t+1]) at Dmbr dists[t], and wpre holds the
// running sums of dists weighted by point count, from any base. It visits
// every window of qCount consecutive points once — each target big enough
// to be a window on its own, then the LD and RD windows, whose marginal MBR
// contributes only part of its points — and returns the minimum window
// distance and wins grown by the qualifying windows' point ranges, LD
// windows by left edge, then RD windows by right edge. Fewer than qCount
// points hold no window, and the minimum is then +Inf: a sequence shorter
// than the query MBR is not bounded by a window over it (Lemma 3 needs the
// query MBR whole inside the sequence), which is why refineOne never sweeps
// one (knnSeqBound's role rule takes it).
//
// Neither the minimum nor the keeping is a compare-and-branch: which window
// is the smallest so far, and whether one qualifies (about 40 % do in a
// range search), are coin tosses no predictor wins. The running minimum is
// an integer min over bit patterns. A window distance is a nonnegative
// float64, and those order like their patterns (KNNBound relies on the same
// fact). The one other thing a window can be is NaN — Inf − Inf, right of a
// Dmbr whose square overflowed, where a caller did not restart the sums
// (phase3Hits does) — and a NaN's pattern is above +Inf's, so it never
// becomes the minimum. Every window's range is written past the kept ones,
// into wins grown once to the pair's at most 2r windows, and the kept count
// advances by dist <= eps — a conditional move, false for NaN. A negative
// eps keeps nothing, and then nothing is written and nothing grown: the kNN
// bound pass (eps −Inf, nil wins) allocates nothing. The degenerate targets
// are not a pass of their own but the l == k case of the LD pass: a target
// holds qCount points exactly when the left-edge walk stops on it, and the
// walk's break leaves none behind (from there on even the rest of the
// sequence is short of qCount). The RD pass starts at the first window's
// right edge, l(0): no right edge before it has qCount points to its left.
func sweepWindows(starts []int32, dists, wpre []float64, qCount int, eps float64, wins []PointRange) (float64, []PointRange) {
	r := len(dists)
	best := infBits
	qc, fq := int32(qCount), float64(qCount)
	var sink [1]PointRange // the write target when nothing is kept
	buf, n := sink[:], 0
	if eps >= 0 {
		wins = slices.Grow(wins, 2*r)
		buf, n = wins[:cap(wins)], len(wins)
	}
	// Degenerate targets and LD windows: two-pointer over left edges; l(k)
	// is non-decreasing.
	l, l0 := 0, r
	for k := 0; k < r; k++ {
		sk := starts[k]
		l = max(l, k)
		for l < r && starts[l+1]-sk < qc {
			l++
		}
		if l >= r {
			break
		}
		if k == 0 {
			l0 = l
		}
		dist, pend := dists[k], starts[k+1]
		if l != k {
			partial := qc - (starts[l] - sk)
			dist = (wpre[l] - wpre[k] + dists[l]*float64(partial)) / fq
			pend = starts[l] + partial
		}
		best = min(best, math.Float64bits(dist))
		buf[n] = PointRange{Start: int(sk), End: int(pend)}
		if dist <= eps {
			n++
		}
	}
	// RD windows: two-pointer over right edges e; the marginal left index
	// p(e) is non-decreasing.
	p := 0
	for e := l0; e < r; e++ {
		se := starts[e+1]
		for p+1 <= e && se-starts[p+1] >= qc {
			p++
		}
		if p == e {
			continue
		}
		partial := qc - (se - starts[p+1])
		dist := (wpre[e+1] - wpre[p+1] + dists[p]*float64(partial)) / fq
		best = min(best, math.Float64bits(dist))
		buf[n] = PointRange{Start: int(se - qc), End: int(se)}
		if dist <= eps {
			n++
		}
	}
	if eps >= 0 {
		wins = wins[:n]
	}
	return math.Float64frombits(best), wins
}

// pushCand pushes c onto the binary min-heap in h (ordered by bound) and
// returns the grown slice. The sift-up replicates container/heap exactly,
// so replacing the interface-based heap (which boxed every element)
// changes neither the heap shape nor the pop order.
func pushCand(h []knnCand, c knnCand) []knnCand {
	h = append(h, c)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(h[i].bound < h[parent].bound) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// popCand removes and returns the minimum-bound candidate, mirroring
// container/heap's swap-root-with-last + sift-down.
func popCand(h []knnCand) (knnCand, []knnCand) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if rt := l + 1; rt < n && h[rt].bound < h[l].bound {
			j = rt
		}
		if !(h[j].bound < h[i].bound) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[n], h[:n]
}
