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
	return db.SearchKNNBounded(q, k, math.Inf(1))
}

// SearchKNNCtx is SearchKNN honoring a context deadline or cancellation
// (see SearchCtx for the check granularity and error contract).
func (db *Database) SearchKNNCtx(ctx context.Context, q *Sequence, k int) ([]KNNResult, error) {
	return db.SearchKNNBoundedCtx(ctx, q, k, math.Inf(1))
}

// SearchKNNBounded is SearchKNN restricted to sequences with D(Q,S) ≤
// bound: refinement stops as soon as the next Dnorm lower bound exceeds
// min(bound, current k-th best), and results beyond bound are dropped
// even when fewer than k qualify. A scatter-gather caller that already
// holds k results at distance w can pass bound=w to later shards and
// prune their refinement without risking a false dismissal (any sequence
// it skips has D > w and cannot re-enter the global top k).
// bound=+Inf is exactly SearchKNN.
func (db *Database) SearchKNNBounded(q *Sequence, k int, bound float64) ([]KNNResult, error) {
	return db.SearchKNNBoundedCtx(context.Background(), q, k, bound)
}

// SearchKNNBoundedCtx is SearchKNNBounded honoring a context deadline or
// cancellation: the lower-bound pass and the refinement loop both check
// ctx periodically and abandon the query with ctx's error. A canceled
// query records nothing into the metrics registry.
//
// The whole query runs out of one pooled scratch: the query segmentation
// and flat point copy, the Dnorm arrays of the lower-bound pass, and the
// candidate min-heap (a manual heap with container/heap's exact sift
// order, minus the per-element interface boxing). Refinement uses the
// flat early-abandoning alignment kernel; abandoning cannot change any
// result (see bestAlignFlat).
func (db *Database) SearchKNNBoundedCtx(ctx context.Context, q *Sequence, k int, bound float64) ([]KNNResult, error) {
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
	// Only unbounded queries are cached: a bound is caller state (the
	// scatter layer's running k-th best), not part of the query, so keying
	// on it would fragment the cache for results that are strict subsets.
	var ref cacheRef
	tr := obs.FromContext(ctx)
	if math.IsInf(bound, 1) {
		ref = db.knnRef(q, k)
		if rs, ok := ref.getKNN(); ok {
			if tr != nil {
				tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "result"))
			}
			return rs, nil
		}
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
	// the caller's bound or the current k-th best exact distance.
	// refined counts exact-distance computations; everything left on the
	// heap at the break was dismissed by its Dnorm lower bound alone.
	candidates := len(sc.heap)
	refined := 0
	var out []KNNResult
	worst := bound
	dim := q.Dim()
	for len(sc.heap) > 0 {
		if refined%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		var c knnCand
		c, sc.heap = popCand(sc.heap)
		if c.bound > worst {
			break
		}
		g := db.seqs[c.id]
		off, dist := bestAlignFlat(sc.qflat, g.Flat, dim, worst)
		refined++
		if dist > bound {
			continue
		}
		out = insertKNN(out, KNNResult{SeqID: c.id, Seq: g.Seq, Dist: dist, Offset: off}, k)
		if len(out) == k && out[len(out)-1].Dist < worst {
			worst = out[len(out)-1].Dist
		}
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
	ref.putKNN(out, k, took)
	return out, nil
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
