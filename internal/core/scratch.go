package core

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// searchScratch is the reusable workspace of one query execution: the
// columnar segmentation of the query, the phase-2 candidate buffers, and
// the phase-3 Dnorm arrays. Instances cycle through scratchPool, so a
// steady stream of queries runs without allocating — every buffer is
// grown to the high-water mark once and then reused. Nothing in a search
// result may alias scratch memory (results hold their own allocations),
// which is what makes returning the scratch to the pool safe. The pool
// invariant: hits and idBits are all-zero and ids is empty whenever the
// scratch is not inside a search.
type searchScratch struct {
	// Query segmentation, columnar: query MBR j's bounds occupy
	// qlo[j*d:(j+1)*d] / qhi[j*d:(j+1)*d], and qmbrs[j].Rect aliases those
	// ranges — the same dual view Segmented keeps for stored sequences.
	qlo, qhi []float64
	qmbrs    []MBRInfo
	// qflat is the columnar copy of the query points (kNN refinement);
	// qstarts is the query's MBR point-range column (see querySide).
	qflat   []float64
	qstarts []int32

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
}

// phase3Scratch holds the per-candidate Dnorm arrays and the candidate's
// solution interval as phase3Hits leaves it: iv is reset by every call and
// its ranges are scratch memory, so a caller keeping a hit copies them out
// (slabRanges, EvalRange).
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

// segmentQuery partitions q into the scratch's columnar arrays — the same
// greedy MCOST rule as Partition, with identical floating-point operation
// order, so it produces exactly the MBRs NewSegmented would. It writes
// bounds into qlo/qhi (pre-sized to the worst case of one MBR per point,
// so the aliased qmbrs rects never dangle) and rebuilds qmbrs. The query
// must already be validated.
func (sc *searchScratch) segmentQuery(q *Sequence, cfg PartitionConfig) {
	d := q.Dim()
	n := q.Len()
	sc.qlo = ensureFloats(sc.qlo, n*d)
	sc.qhi = ensureFloats(sc.qhi, n*d)
	if cap(sc.qmbrs) < n {
		sc.qmbrs = make([]MBRInfo, 0, n)
	}
	sc.qmbrs = sc.qmbrs[:0]

	cur := MBRInfo{Start: 0, End: 1}
	slot := func(j int) geom.Rect {
		return geom.Rect{
			L: sc.qlo[j*d : (j+1)*d : (j+1)*d],
			H: sc.qhi[j*d : (j+1)*d : (j+1)*d],
		}
	}
	cur.Rect = slot(0)
	copy(cur.Rect.L, q.Points[0])
	copy(cur.Rect.H, q.Points[0])
	curCost := cfg.mcost(cur.Rect, 1)
	for i := 1; i < n; i++ {
		p := q.Points[i]
		grownCost := cfg.mcostGrown(cur.Rect, p, cur.Count()+1)
		if grownCost > curCost || cur.Count() >= cfg.MaxPoints {
			sc.qmbrs = append(sc.qmbrs, cur)
			cur = MBRInfo{Rect: slot(len(sc.qmbrs)), Start: i, End: i + 1}
			copy(cur.Rect.L, p)
			copy(cur.Rect.H, p)
			curCost = cfg.mcost(cur.Rect, 1)
			continue
		}
		cur.Rect.ExtendPoint(p)
		cur.End = i + 1
		curCost = grownCost
	}
	sc.qmbrs = append(sc.qmbrs, cur)
}

// fillQueryFlat copies the query points into the scratch's columnar array
// (kNN refinement input).
func (sc *searchScratch) fillQueryFlat(q *Sequence) {
	d := q.Dim()
	sc.qflat = ensureFloats(sc.qflat, q.Len()*d)
	for i, p := range q.Points {
		copy(sc.qflat[i*d:(i+1)*d], p)
	}
}

// querySide returns the query as the alignment kernel reads it, after
// segmentQuery and fillQueryFlat: the flat points, the columnar MBR bounds
// and the starts column, rebuilt here from qmbrs.
func (sc *searchScratch) querySide(d int) alignSide {
	r := len(sc.qmbrs)
	if cap(sc.qstarts) < r+1 {
		sc.qstarts = make([]int32, r+1)
	}
	sc.qstarts = sc.qstarts[:r+1]
	for j := range sc.qmbrs {
		sc.qstarts[j+1] = int32(sc.qmbrs[j].End)
	}
	return alignSide{flat: sc.qflat, lo: sc.qlo[:r*d], hi: sc.qhi[:r*d], starts: sc.qstarts}
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
// refs, collecting each sequence id the first time any bit of its row is
// set.
func (sc *searchScratch) markHits(refs []rtree.Ref, qi int) {
	w, bit := qi>>6, uint64(1)<<(qi&63)
	for _, ref := range refs {
		id, _ := ref.Unpack()
		row := sc.hitRow(id)
		var seen uint64
		for _, x := range row {
			seen |= x
		}
		if seen == 0 {
			sc.ids = append(sc.ids, id)
		}
		row[w] |= bit
	}
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

// phase3Hits is the phase-3 kernel: Dnorm pruning and solution-interval
// assembly for one candidate sequence, over columnar data only. hits is
// the candidate's row of the phase-2 hit table; query MBRs whose bit is
// clear are skipped, nil means evaluate every query MBR (the index-free
// caller: the transaction layer's delta scan).
//
// Skipping is exact. Every Dnorm window distance is a convex combination
// of the pair's Dmbr values (Definition 5, Lemmas 2–3), so a pair without
// an index hit — every Dmbr above ε, by the same squared-space arithmetic
// MinDistSqBatch uses — has no window within ε: it adds nothing to the
// solution interval, and its window minimum exceeds ε while an emitted
// match's MinDnorm is at most ε, so it cannot be the minimum either.
//
// For each evaluated pair the Dmbr row is computed over the candidate's
// Lo/Hi in squared space with one sqrt per target, then sweepWindows
// visits every window once. Each qualifying window contributes its points
// to the solution interval (Example 3), widened to full-query extent: the
// window covers the data matching query offsets [qm.Start, qm.End), and
// the Definition 6 windows containing it are len(Q) long, so the match
// region extends left by the query prefix before this MBR and right by
// the suffix after it. Results are bit-identical to phase3One over the
// same candidates; evals counts the Dmbr values computed. The interval is
// left in p3.iv (see phase3Scratch) and hit reports whether it is non-empty;
// minDnorm is the pair minimum either way.
func phase3Hits(qmbrs []MBRInfo, hits []uint64, p3 *phase3Scratch, g *Segmented, qLen int, eps float64) (minDnorm float64, hit bool, evals int) {
	minDnorm = math.Inf(1)
	p3.iv.ranges = p3.iv.ranges[:0]
	starts := g.Starts
	r := len(starts) - 1
	n := int(starts[r])
	p3.sq = ensureFloats(p3.sq, r)
	p3.dists = ensureFloats(p3.dists, r)
	p3.wpre = ensureFloats(p3.wpre, r+1)
	sq, dists, wpre := p3.sq, p3.dists, p3.wpre
	wpre[0] = 0
	for qi := range qmbrs {
		if hits != nil && hits[qi>>6]&(1<<(qi&63)) == 0 {
			continue
		}
		qm := &qmbrs[qi]
		geom.MinDistSqBatch(qm.Rect.L, qm.Rect.H, g.Lo, g.Hi, sq)
		for t := range dists {
			dists[t] = math.Sqrt(sq[t])
			wpre[t+1] = wpre[t] + dists[t]*float64(starts[t+1]-starts[t])
		}
		evals += r
		var minDist float64
		minDist, p3.wins = sweepWindows(starts, dists, wpre, qm.Count(), eps, p3.wins[:0])
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
		if minDist < minDnorm {
			minDnorm = minDist
		}
	}
	return minDnorm, len(p3.iv.ranges) > 0, evals
}

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

// keepWindow folds one Dnorm window into the running minimum — kept as a
// bit pattern, see sweepWindows — and, when the window is within eps,
// appends its half-open point range to wins.
func keepWindow(best uint64, wins []PointRange, dist, eps float64, pstart, pend int32) (uint64, []PointRange) {
	if dist <= eps {
		wins = append(wins, PointRange{Start: int(pstart), End: int(pend)})
	}
	return min(best, math.Float64bits(dist)), wins
}

// sweepWindows is dnormCalc.sweep over the columnar arrays: the same
// multiset of windows with the same floating-point operations per window,
// the point counts read as differences of starts and no closure. It
// returns the minimum window distance and wins grown by the qualifying
// windows' point ranges; with a pre-grown wins it does not allocate.
//
// Two things differ from the reference's shape, neither visibly. First,
// the running minimum: which window is the smallest so far is a coin toss
// no predictor wins, so instead of a compare-and-branch the minimum is an
// integer min over bit patterns. A window distance is a nonnegative
// float64, and those order like their patterns (KNNBound relies on the
// same fact). The one other thing a window can be is NaN — Inf − Inf,
// right of a Dmbr whose square overflowed — and a NaN's pattern is above
// +Inf's, so it never becomes the minimum, just as it fails the
// reference's dist < best. Second, the degenerate targets — big enough to
// be a window on their own, at their own Dmbr — are not a pass of their
// own but the l == k case of the LD pass: a target holds qCount points
// exactly when the left-edge walk stops on it, and the walk's break leaves
// none behind (from there on even the rest of the sequence is short of
// qCount). That emits the windows in another order, which neither a
// minimum nor a normalised IntervalSet can see.
func sweepWindows(starts []int32, dists, wpre []float64, qCount int, eps float64, wins []PointRange) (float64, []PointRange) {
	r := len(dists)
	best := infBits
	qc, fq := int32(qCount), float64(qCount)
	if total := starts[r]; total <= qc {
		// Sequence no longer than the query MBR: one window, all of it.
		best, wins = keepWindow(best, wins, wpre[r]/float64(total), eps, 0, total)
		return math.Float64frombits(best), wins
	}
	// Degenerate targets and LD windows: two-pointer over left edges; l(k)
	// is non-decreasing.
	l := 0
	for k := 0; k < r; k++ {
		sk := starts[k]
		l = max(l, k)
		for l < r && starts[l+1]-sk < qc {
			l++
		}
		if l >= r {
			break
		}
		dist, pend := dists[k], starts[k+1]
		if l != k {
			partial := qc - (starts[l] - sk)
			dist = (wpre[l] - wpre[k] + dists[l]*float64(partial)) / fq
			pend = starts[l] + partial
		}
		best, wins = keepWindow(best, wins, dist, eps, sk, pend)
	}
	// RD windows: two-pointer over right edges e; the marginal left index
	// p(e) is non-decreasing.
	p := 0
	for e := 0; e < r; e++ {
		se := starts[e+1]
		if se < qc {
			continue
		}
		for p+1 <= e && se-starts[p+1] >= qc {
			p++
		}
		if p == e {
			continue
		}
		partial := qc - (se - starts[p+1])
		dist := (wpre[e+1] - wpre[p+1] + dists[p]*float64(partial)) / fq
		best, wins = keepWindow(best, wins, dist, eps, starts[p+1]-partial, se)
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
