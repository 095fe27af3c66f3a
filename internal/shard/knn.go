package shard

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// SearchKNN scatters a k-nearest-sequences query under the exact distance
// D; see SearchKNNMetricCtx, whose MetricD case it is.
func (s *ShardedDB) SearchKNN(q *core.Sequence, k int) ([]core.KNNResult, error) {
	return s.SearchKNNMetricCtx(context.Background(), q, k, core.MetricD{})
}

// SearchKNNCtx is SearchKNN under a caller context and the
// fault-tolerance Policy in force (see SearchKNNMetricCtx).
func (s *ShardedDB) SearchKNNCtx(ctx context.Context, q *core.Sequence, k int) ([]core.KNNResult, error) {
	return s.SearchKNNMetricCtx(ctx, q, k, core.MetricD{})
}

// SearchKNNMetric scatters an exact-metric k-nearest query; see
// SearchKNNMetricCtx.
func (s *ShardedDB) SearchKNNMetric(q *core.Sequence, k int, m core.Metric) ([]core.KNNResult, error) {
	return s.SearchKNNMetricCtx(context.Background(), q, k, m)
}

// SearchKNNMetricCtx is the one kNN scatter: every shard computes its
// local top k under the metric concurrently, and the gather side merges
// the disjoint lists into the global top k (nondecreasing distance, ties
// by global id). A nil metric means MetricD.
//
// All shards prune against one live k-th-best distance (core.KNNBound):
// each re-reads it before every refinement and tightens it with its own
// k-th best, and the gather tightens it with the merged k-th best, so the
// scatter refines about as few sequences as one database holding
// everything would. Every published value is the k-th best of k sequences
// that exist, so it never drops below the final global k-th distance, and
// shards dismiss only what lies strictly above it: no neighbor — and no
// sequence tied with the k-th — is lost. The bound holds distances under
// the query's own metric; under MetricDTW the shard-local pruning it
// drives uses DTW's envelope bounds, never D's Dnorm bound.
//
// The query runs under the fault-tolerance Policy in force (timeout,
// retry, hedging — see SearchCtx); retried and hedged attempts share the
// same bound. With Policy.AllowPartial a shard that exhausts its attempts
// is skipped: the returned neighbors are then the exact top k of the
// answered shards' corpus slice only, and — unlike a range search, whose
// partial answer is a correct subset — true global neighbors stored on
// the skipped shard are silently missing. Degraded kNN answers are
// therefore only counted in the partial-results metric, not flagged in
// the result itself; callers that must distinguish use the range-search
// path or keep AllowPartial off. Because a skipped shard's k sequences
// never reach the answer, its k-th best must not prune the others: under
// AllowPartial each shard publishes to a bound of its own (shared by its
// attempts) and reads the shared one, which then only the gather tightens,
// with answers it has merged.
func (s *ShardedDB) SearchKNNMetricCtx(ctx context.Context, q *core.Sequence, k int, m core.Metric) ([]core.KNNResult, error) {
	if k <= 0 {
		return nil, nil
	}
	// Front cache: hits skip the fan-out entirely; entries hold global
	// ids and are copied out, so the in-place id rewriting below can
	// never reach a cached slice. Degraded (partial) answers are not
	// cached — see SetCache. D keeps its own key family, so answers
	// under different metrics never alias.
	mt, dtw := m.(core.MetricDTW)
	ref := s.knnRef(q, k)
	if dtw {
		ref = s.metricKNNRef(q, k, mt)
	}
	if rs, ok := ref.getKNN(); ok {
		return rs, nil
	}
	t0 := time.Now()
	n := len(s.shards)
	pol := s.Policy()
	met := s.metrics()

	// seeded counts shard launches that found the bound already finite —
	// the bound-sharing effectiveness observable at launch granularity.
	gather := &knnGather{k: k}
	bound := core.NewKNNBound(k)
	var seeded, unseeded atomic.Int64
	errs := make([]error, n)
	sem := make(chan struct{}, scatterWorkers(n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b := s.backend(i)
			sb := bound.Searcher(uint32(i))
			if pol.AllowPartial {
				sb = bound.Local()
			}
			local, err := robustCall(ctx, pol, met, func(actx context.Context) ([]core.KNNResult, error) {
				if math.IsInf(sb.Load(), 1) {
					unseeded.Add(1)
				} else {
					seeded.Add(1)
				}
				if dtw {
					return b.SearchKNNMetricBoundedCtx(actx, q, k, sb, mt)
				}
				return b.SearchKNNBoundedCtx(actx, q, k, sb)
			})
			if err != nil {
				errs[i] = err
				return
			}
			for j := range local {
				local[j].SeqID = s.globalID(i, local[j].SeqID)
			}
			gather.merge(local, bound)
		}(i)
	}
	wg.Wait()
	answered := 0
	var firstErr error
	for i, err := range errs {
		if err == nil {
			answered++
			continue
		}
		if !pol.AllowPartial {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("shard: shard %d: %w", i, err)
		}
	}
	if answered == 0 {
		return nil, firstErr
	}
	if met != nil {
		if answered < n {
			met.incPartial()
		}
		met.recordKNN(time.Since(t0), int(seeded.Load()), int(unseeded.Load()), bound.Counts(), dtw)
	}
	if answered == n {
		ref.putKNN(gather.out, k, time.Since(t0))
	}
	return gather.out, nil
}

// knnGather accumulates per-shard top-k lists into a global top k.
type knnGather struct {
	mu  sync.Mutex
	k   int
	out []core.KNNResult // sorted by (Dist, SeqID), ≤ k entries
}

// merge folds one shard's answer, ids already global, into the gather
// under the one tie rule (core.InsertKNN), then publishes the merged k-th
// best to the shards still refining.
func (g *knnGather) merge(rs []core.KNNResult, bound *core.KNNBound) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range rs {
		g.out = core.InsertKNN(g.out, r, g.k)
	}
	if len(g.out) == g.k {
		bound.Tighten(g.out[g.k-1].Dist)
	}
}
