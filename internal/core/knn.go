package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// KNNResult is one ranked result of a k-nearest-sequences query.
type KNNResult struct {
	SeqID uint32    // database id of the neighbor
	Seq   *Sequence // the neighbor itself
	// Dist is the exact sequence distance D(Q,S).
	Dist float64
	// Offset is the best alignment of the shorter side inside the longer.
	Offset int
}

// SearchKNN returns the k stored sequences nearest to q under the exact
// distance D, in nondecreasing order. It is an extension beyond the
// paper's range queries, built from the same machinery: candidate
// sequences are ranked by the Dnorm lower bound (Lemma 3) and refined with
// the exact distance only until the next lower bound exceeds the k-th best
// exact distance — so most sequences are never scanned.
func (db *Database) SearchKNN(q *Sequence, k int) ([]KNNResult, error) {
	return db.SearchKNNBoundedCtx(context.Background(), q, k, nil)
}

// SearchKNNCtx is SearchKNN honoring a context deadline or cancellation
// (see SearchCtx for the check granularity and error contract).
func (db *Database) SearchKNNCtx(ctx context.Context, q *Sequence, k int) ([]KNNResult, error) {
	return db.SearchKNNBoundedCtx(ctx, q, k, nil)
}

// SearchKNNBounded is SearchKNN pruned by a shared live bound: refinement
// stops as soon as the next Dnorm lower bound exceeds min(bound, own k-th
// best), re-read before every refinement, and the bound is tightened
// whenever this search's own k-th best improves (see KNNBound for why that
// is safe). The result is this database's part of the answer: every stored
// sequence among its k nearest whose distance is at most the bound's final
// value is present with its exact distance; sequences above the bound may
// be missing even when fewer than k are returned. A nil bound is exactly
// SearchKNN.
func (db *Database) SearchKNNBounded(q *Sequence, k int, bound *KNNBound) ([]KNNResult, error) {
	return db.SearchKNNBoundedCtx(context.Background(), q, k, bound)
}

// SearchKNNBoundedCtx is SearchKNNBounded honoring a context deadline or
// cancellation: the lower-bound pass and the refinement loop both check
// ctx periodically and abandon the query with ctx's error. A canceled
// query records nothing — neither into the metrics registry nor into the
// bound's counts.
//
// The whole query runs out of one pooled scratch: the query segmentation
// and flat point copy, the Dnorm arrays of the lower-bound pass, the
// candidate min-heap (a manual heap with container/heap's exact sift
// order, minus the per-element interface boxing) and the alignment
// kernel's Dmbr table. Refinement is the three-rung ladder of DESIGN §11:
// the sequence-level Dnorm bound orders and stops the loop, bestAlign's
// alignment-level Dmbr bound skips offsets, and the surviving offsets are
// summed with early abandoning; none of the three can change a result.
//
// The result cache is consulted whatever the bound (a cached unbounded
// answer is a valid bounded one), but an answer is stored only when it is
// the unbounded one (knnCutoff.unbounded).
func (db *Database) SearchKNNBoundedCtx(ctx context.Context, q *Sequence, k int, bound *KNNBound) ([]KNNResult, error) {
	t0 := time.Now()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Dim() != db.opts.Dim {
		return nil, fmt.Errorf("core: query dim %d, database dim %d: %w",
			q.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	if k <= 0 {
		return nil, nil
	}
	ref := db.knnRef(q, k)
	tr := obs.FromContext(ctx)
	if rs, ok := ref.getKNN(); ok {
		if tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "result"))
		}
		if len(rs) == k {
			bound.Tighten(rs[k-1].Dist)
		}
		return rs, nil
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, errors.New("core: database closed")
	}

	sc := getScratch()
	defer putScratch(sc)
	sc.segmentQuery(q, db.opts.Partition)
	sc.fillQueryFlat(q)
	dim := q.Dim()
	qs := sc.querySide(dim)

	// Lower bound for every live sequence: min over query MBRs of the
	// sequence's MinDnorm. (The loop over all sequences is O(n·r) metric
	// work on in-memory MBRs — no point data is touched.)
	sc.heap = sc.heap[:0]
	for id, g := range db.seqs {
		if g == nil {
			continue // removed
		}
		if id%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		lb := dnormBound(sc.qmbrs, &sc.p3, g)
		sc.heap = pushCand(sc.heap, knnCand{id: uint32(id), bound: lb})
	}

	// Refine in bound order; stop when the next lower bound cannot beat
	// the shared bound or the current k-th best exact distance.
	// refined counts exact-distance computations; everything left on the
	// heap at the break was dismissed by its Dnorm lower bound alone.
	candidates := len(sc.heap)
	refined := 0
	var out []KNNResult
	worst := knnCutoff{bound: bound, own: math.Inf(1)}
	for len(sc.heap) > 0 {
		if refined%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		var c knnCand
		c, sc.heap = popCand(sc.heap)
		cut := worst.load()
		if c.bound > cut {
			break
		}
		g := db.seqs[c.id]
		off, dist := bestAlign(&sc.align, qs, g.side(), dim, cut)
		refined++
		if dist > cut {
			continue
		}
		out = insertKNN(out, KNNResult{SeqID: c.id, Seq: g.Seq, Dist: dist, Offset: off}, k)
		worst.publish(out, k)
	}
	took := time.Since(t0)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "knn", took,
			obs.Int("k", k),
			obs.Int("candidates", candidates),
			obs.Int("refined", refined),
			obs.Float("pruned_frac", prunedFrac(candidates, refined)))
	}
	db.met.RecordKNN(took, refined, candidates-refined)
	bound.AddCounts(KNNCounts{Candidates: candidates, Refined: refined})
	if worst.unbounded() {
		ref.putKNN(out, k, took)
	}
	return out, nil
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

// publish notes an improved own k-th best after an insertion into the
// sorted top-k and tightens the shared bound with it.
func (c *knnCutoff) publish(out []KNNResult, k int) {
	if len(out) == k && out[k-1].Dist < c.own {
		c.own = out[k-1].Dist
		c.bound.Tighten(c.own)
	}
}

// insertKNN inserts r into the sorted top-k slice, keeping at most k.
func insertKNN(rs []KNNResult, r KNNResult, k int) []KNNResult {
	pos := len(rs)
	for pos > 0 && rs[pos-1].Dist > r.Dist {
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

// knnCand is a sequence with its Dnorm lower bound, ordered by bound.
type knnCand struct {
	id    uint32
	bound float64
}
