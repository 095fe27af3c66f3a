package core

import (
	"context"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// KNNResult is a Match as a KNN query ranks it: SeqID, Seq, the exact
// distance Dist and, under D, the best alignment Offset.
type KNNResult = Match

// knnD is the KNN kernel under the exact distance D, an extension beyond the
// paper's range queries built from the same machinery: the index is walked
// outward from the query's MBRs, the sequences it reaches are ranked by a
// Dnorm lower bound (Lemma 3) and refined with the exact distance only until
// every lower bound left exceeds the cutoff — the smaller of q.Bound and the
// own k-th best, re-read at every step — so most sequences are never bounded,
// let alone scanned. The loop checks ctx every cancelCheckEvery steps; a
// canceled query records nothing, neither into the metrics registry nor into
// the bound's counts. Do holds the read lock and owns sc; the second result
// says whether the answer is the unbounded one (knnCutoff.unbounded), the
// only kind Do may cache.
//
// The search is two priority queues worked in step (rung 0 of DESIGN §8's
// ladder). One is a best-first walk of the R*-tree (rtree.Nearest) keyed by
// the smallest Dmbr from a node or entry box to any query MBR; every
// sequence the walk has not reached yet has all its Dmbr, hence its D
// (Lemma 1), at or above the walk's next key. The other is the candidate
// heap: the first index entry of a sequence puts that sequence on it under
// its count-weighted Dnorm bound (knnSeqBound). Each step takes whichever
// queue is nearer. If the nearest candidate's bound is not above the
// walk's next key, nothing unseen can precede it, and it is refined by
// bestAlign against the cutoff in force — alignment-level Dmbr bound, then
// the early-abandoned exact sum, the two upper rungs — and, if accepted,
// offered to the shared bound, which is tightened if the top k improved;
// otherwise the walk advances. In a scatter whose bound has a rendezvous
// (KNNBound.Meet) the search arrives there after its m-th refinement and
// waits for its siblings' first ones. The search ends when the walk is
// exhausted or its next key exceeds the cutoff, and no candidate at or
// below the cutoff is left.
//
// The answer is the exact one because of two facts only. A sequence is
// dismissed only while a valid lower bound of its D is strictly above the
// cutoff in force, and cutoffs only fall; and the loop ends only when that
// holds for every unrefined sequence. The order of refinement does not
// enter: the top k is kept by (Dist, SeqID) (InsertKNN), so which of two
// tied sequences was refined first cannot show. "Valid" is meant of the
// computed floats — the walk's key is shrunk by alignSlack and the
// sequence bound by knnSeqBound's own margin before either meets a cutoff
// — and every dismissal is a strict >, which a NaN fails and +Inf fails
// against a cutoff of +Inf: sequences whose Dmbr overflowed are refined,
// and reported with the distance bestAlign gives them.
//
// The query side — its segmentation and flat point copy — is the
// prepared query's, shared with the query's other shards; the rest runs out
// of the one scratch: the walk's queue, the set of sequences already
// bounded (the phase-2 hit table, one bit per sequence), the bound's Dnorm
// arrays, the candidate heap and the alignment kernel's running sums.
// Counts keep their meaning: Candidates is every live sequence, Refined
// the exact distances computed, and the difference was dismissed by a
// bound — most of it now without the sequence ever being looked at.
func (db *Database) knnD(ctx context.Context, query Query, sc *searchScratch, st *SearchStats, tr *obs.Trace, t0 time.Time) ([]Match, bool, error) {
	k, bound := query.K, query.Bound
	p := query.prepared()
	dim, qs := p.dim, p.side

	sc.beginHits(len(db.seqs), 1)
	sc.heap = sc.heap[:0]
	sc.near.Reset(db.tree, qs.lo, qs.hi)
	// An alignment sums min(|Q|, |S|) ≤ |Q| point distances, and alignSlack
	// only shrinks as that count grows: one factor serves every sequence.
	keySlack := alignSlack(p.seq.Len(), dim)
	bounded, refined := 0, 0
	meet := bound.meetAfter()
	var out []KNNResult
	worst := knnCutoff{bound: bound, own: math.Inf(1)}
	for step := 0; ; step++ {
		if step%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, false, err
			}
		}
		cut := worst.load()
		keySq, walking := sc.near.Head()
		key := math.Sqrt(keySq) * keySlack
		if len(sc.heap) > 0 && !(walking && sc.heap[0].bound > key) {
			var c knnCand
			c, sc.heap = popCand(sc.heap)
			if c.bound > cut {
				// The rest of the heap is no nearer, and the walk's key, if
				// any is left, is at least this bound.
				break
			}
			g := db.seqs[c.id]
			off, dist := bestAlign(&sc.align, qs, g.side(), dim, cut)
			if dist <= cut {
				out = worst.accept(out, KNNResult{SeqID: c.id, Seq: g.Seq, Dist: dist, Offset: off}, k)
			}
			if refined++; refined == meet {
				bound.arrive(ctx)
			}
			continue
		}
		if !walking || key > cut {
			break // any candidate left is above key
		}
		entry, isEntry, err := sc.near.Pop()
		if err != nil {
			return nil, false, err
		}
		if !isEntry {
			continue
		}
		if id, _ := entry.Unpack(); sc.firstHit(id) {
			bounded++
			sc.heap = pushCand(sc.heap, knnCand{id: id, bound: knnSeqBound(&sc.p3, qs, db.seqs[id].side(), dim)})
		}
	}
	candidates := db.live
	took := time.Since(t0)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "knn", took,
			obs.Int("k", k),
			obs.Int("candidates", candidates),
			obs.Int("bounded", bounded),
			obs.Int("refined", refined),
			obs.Float("pruned_frac", prunedFrac(candidates, refined)))
	}
	db.met.RecordKNN(took, refined, candidates-refined)
	bound.AddCounts(KNNCounts{Candidates: candidates, Refined: refined})
	st.CPUTime = took
	return out, worst.unbounded(), nil
}

// knnSeqBound is the sequence-level lower bound of D(a, b) that orders the
// kNN candidate heap: the count-weighted mean, over the shorter side's
// MBRs, of each one's smallest Dnorm window on the longer side.
//
// The best alignment lays the shorter sequence, k points, somewhere inside
// the longer one, so the c_i points of its MBR i meet one contiguous run of
// c_i points there. By Lemma 1 the summed distance over that run is at
// least Σ Dmbr(mbr_i, the long MBR holding the point) — c_i times the Dnorm
// window at that position — and the sweep's minimum m_i is no larger than
// any position's window (Lemma 3: a window's value is piecewise linear in
// its position and the sweep visits every breakpoint). Summing over i,
// k·D ≥ Σ c_i·m_i: a weighted mean where min_i m_i was used before. The
// roles follow the lengths because the argument needs each weighted MBR
// whole inside the other sequence. Weighting the longer side's MBRs fails —
// a run can hang over the end — and so does their plain minimum: a short
// stored sequence lying across two query MBRs, matching half of each, is
// far from both as a whole (TestKNNShortSequenceStraddlesQueryMBRs).
//
// In float64 two things stand between the computed Σ c_i·m_i and the exact
// sum alignMean forms. One is rounding per operation, as in alignSlack: per
// term the computed Dmbr is at most ((1+u)/(1−u))^(d/2+1) times the
// computed point distance, a window adds four roundings, each of the two
// sums at most k, the lines below four — all inside the 4u·(k+d+4) that
// alignSlack takes off. The other is cancellation: a window is a difference
// of the running sums wpre, and each of the at most r additions between its
// ends is off by up to u·wpre[r] whatever the window's own size. A computed
// window can so exceed the real one by r·u·wpre[r]/c_i, and Σ c_i·m_i by
// r·u·Σ_i wpre_i[r]; cancelMargin(r, Σ wpre), 2u times that, is
// subtracted, the factor two covering the roundings of that term itself.
// For data of one scale this is some 10⁻¹³ of the bound. Where it is not —
// a spike 10¹⁶ times the rest swallows the small terms of wpre — the
// weighted mean gives way to the floor under it: the smallest Dmbr of any
// MBR pair, which by Lemma 1 and alignSlack's argument is below every point
// distance, hence below D. An overflowed sum (Inf − Inf) ends there too.
func knnSeqBound(p3 *phase3Scratch, a, b alignSide, d int) float64 {
	short, long := a, b
	if len(short.flat) > len(long.flat) {
		short, long = long, short
	}
	rs, rl := len(short.starts)-1, len(long.starts)-1
	p3.sq = ensureFloats(p3.sq, rl)
	p3.dists = ensureFloats(p3.dists, rl)
	p3.wpre = ensureFloats(p3.wpre, rl+1)
	sq, dists, wpre := p3.sq, p3.dists, p3.wpre
	wpre[0] = 0
	var sum, total float64
	nearest := infBits // smallest squared Dmbr, as a bit pattern (see sweepWindows)
	for i := 0; i < rs; i++ {
		geom.MinDistSqBatch(short.lo[i*d:(i+1)*d], short.hi[i*d:(i+1)*d], long.lo, long.hi, sq)
		for t := range dists {
			nearest = min(nearest, math.Float64bits(sq[t]))
			dists[t] = math.Sqrt(sq[t])
			wpre[t+1] = wpre[t] + dists[t]*float64(long.starts[t+1]-long.starts[t])
		}
		c := int(short.starts[i+1] - short.starts[i])
		m, _ := sweepWindows(long.starts, dists, wpre, c, math.Inf(-1), nil)
		sum += m * float64(c)
		total += wpre[rl]
	}
	k := len(short.flat) / d
	slack := alignSlack(k, d)
	floor := math.Sqrt(math.Float64frombits(nearest)) * slack
	if w := (sum - cancelMargin(rl, total)) / float64(k) * slack; w > floor {
		return w
	}
	return floor
}

// knnCutoff is one search's refinement cutoff: the smaller of its own
// k-th best and the shared live bound.
type knnCutoff struct {
	bound *KNNBound
	own   float64 // own k-th best exact distance, +Inf below k results
}

// load re-reads the shared bound and returns the cutoff in force.
func (c *knnCutoff) load() float64 {
	return min(c.bound.Load(), c.own)
}

// unbounded reports, once the search has ended, whether its answer is the
// one an unbounded search returns — the only kind the result cache may
// hold. The shared bound only ever falls, so if its value now is no lower
// than the final own k-th best, every cutoff the search pruned with was at
// least that k-th best too: whatever was skipped or dropped lies strictly
// above it, outside the top k, and what was kept was refined in the same
// order to the same bits. In a scatter that holds for the shard whose
// k-th best is the smallest; the other shards' answers stay out of their
// caches.
func (c *knnCutoff) unbounded() bool {
	return c.own <= c.bound.Load()
}

// accept inserts r, an exact distance at or below the cutoff in force, into
// the sorted top-k, offers it to the shared bound's pool, and, if the own
// k-th best improved, notes that and tightens the shared bound with it.
func (c *knnCutoff) accept(out []KNNResult, r KNNResult, k int) []KNNResult {
	out = InsertKNN(out, r, k)
	c.bound.Offer(r.SeqID, r.Dist)
	if len(out) == k && out[k-1].Dist < c.own {
		c.own = out[k-1].Dist
		c.bound.Tighten(c.own)
	}
	return out
}

// InsertKNN inserts r into rs, the best at most k results so far in
// (Dist, SeqID) order, and returns the best at most k of them all in that
// order. It is the one tie rule of every kNN answer — a database's, a
// scatter's merge, a transaction snapshot's base-plus-delta merge — which
// is what makes an answer a function of the stored sequences alone, not of
// the order they were refined or arrived in.
func InsertKNN(rs []KNNResult, r KNNResult, k int) []KNNResult {
	pos := len(rs)
	for pos > 0 && (rs[pos-1].Dist > r.Dist || (rs[pos-1].Dist == r.Dist && rs[pos-1].SeqID > r.SeqID)) {
		pos--
	}
	rs = append(rs, KNNResult{})
	copy(rs[pos+1:], rs[pos:])
	rs[pos] = r
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

// knnCand is a sequence with its lower bound, ordered by bound.
type knnCand struct {
	id    uint32
	bound float64
}
