package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Metric scatter-gather: the exact-metric range and kNN queries fanned
// out over the shards. The per-shard calls go through the Backend (so
// the fault-tolerance Policy — timeout, retry, hedging, partial results
// — applies exactly as on the D path). The kNN scatter, D and metric
// alike, is SearchKNNMetricCtx in knn.go.

// SearchMetric runs the exact-metric range search on every shard
// concurrently and merges the answers by ascending global id — the
// union of the per-shard ε-balls, identical to a single-node metric
// search over the same corpus.
func (s *ShardedDB) SearchMetric(q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	return s.SearchMetricCtx(context.Background(), q, eps, m)
}

// SearchMetricCtx is SearchMetric under a caller context and the
// fault-tolerance Policy in force (see SearchCtx for the contract).
func (s *ShardedDB) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	if m == nil {
		m = core.MetricD{}
	}
	ref := s.metricRangeRef(q, eps, m)
	tr := obs.FromContext(ctx)
	if ms, st, ok := ref.getMetric(); ok {
		if tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "front"))
		}
		return ms, st, nil
	}
	n := len(s.shards)
	pol := s.Policy()
	met := s.metrics()
	scatterCtx, endScatter := obs.StartSpan(ctx, "scatter")
	type result struct {
		matches []core.MetricMatch
		stats   core.SearchStats
		wall    time.Duration
		err     error
	}
	results := make([]result, n)
	sem := make(chan struct{}, scatterWorkers(n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			sem <- struct{}{}
			defer func() { <-sem }()
			b := s.backend(i)
			shardCtx := scatterCtx
			var endShard func(...obs.Attr)
			if tr != nil {
				shardCtx, endShard = obs.StartSpan(scatterCtx, "shard")
			}
			rep, err := robustCall(shardCtx, pol, met, func(actx context.Context) (metricReply, error) {
				ms, st, err := b.SearchMetricCtx(actx, q, eps, m)
				return metricReply{matches: ms, stats: st}, err
			})
			if endShard != nil {
				endShard(obs.Int("shard", i), obs.Bool("ok", err == nil))
			}
			results[i] = result{matches: rep.matches, stats: rep.stats, wall: time.Since(t0), err: err}
		}(i)
	}
	wg.Wait()

	var merged core.SearchStats
	answered := 0
	total := 0
	for _, r := range results {
		total += len(r.matches)
	}
	out := slices.Grow([]core.MetricMatch(nil), total) // stays nil when nothing matched
	var firstErr error
	for i, r := range results {
		if r.err != nil {
			if !pol.AllowPartial {
				endScatter(obs.Int("shards", n), obs.Int("failed_shard", i))
				return nil, merged, fmt.Errorf("shard: shard %d: %w", i, r.err)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("shard: shard %d: %w", i, r.err)
			}
			continue
		}
		for _, mm := range r.matches {
			mm.SeqID = s.globalID(i, mm.SeqID)
			out = append(out, mm)
		}
		answered++
		mergeStats(&merged, r.stats)
	}
	merged.ShardsAnswered = answered
	merged.Partial = answered < n
	endScatter(obs.Int("shards", n),
		obs.Int("shards_answered", answered),
		obs.Bool("partial", merged.Partial))
	if merged.Partial {
		tr.MarkPartial()
	}
	if answered == 0 {
		return nil, merged, firstErr
	}
	if answered > 1 { // one shard's list is already ascending
		slices.SortFunc(out, func(a, b core.MetricMatch) int { return cmp.Compare(a.SeqID, b.SeqID) })
	}
	if met != nil {
		durs := make([]time.Duration, n)
		for i, r := range results {
			durs[i] = r.wall
		}
		met.recordScatter(merged, durs)
		if _, ok := m.(core.MetricDTW); ok {
			met.recordDTW(merged)
		}
	}
	ref.putMetric(out, merged)
	return out, merged, nil
}

// metricReply carries one shard's metric range answer through robustCall.
type metricReply struct {
	matches []core.MetricMatch
	stats   core.SearchStats
}

// SequentialSearchMetric runs the exhaustive exact-metric baseline on
// every shard concurrently and merges by ascending global id.
func (s *ShardedDB) SequentialSearchMetric(q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, error) {
	n := len(s.shards)
	results := make([][]core.MetricMatch, n)
	errs := make([]error, n)
	sem := make(chan struct{}, scatterWorkers(n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = s.shards[i].SequentialSearchMetric(q, eps, m)
		}(i)
	}
	wg.Wait()
	var out []core.MetricMatch
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, errs[i])
		}
		for _, r := range results[i] {
			r.SeqID = s.globalID(i, r.SeqID)
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SeqID < out[b].SeqID })
	return out, nil
}

// cachedMetricScatter is one memoized gathered metric range answer.
type cachedMetricScatter struct {
	matches []core.MetricMatch
	stats   core.SearchStats
}

// metricRangeRef resolves the front-cache slot for a metric range query;
// the key folds the metric's identity and window, so answers under
// different distance semantics never alias (see core's fingerprint).
func (s *ShardedDB) metricRangeRef(q *core.Sequence, eps float64, m core.Metric) scatterRef {
	c := s.qcache.Load()
	if c == nil {
		return scatterRef{}
	}
	return scatterRef{
		c:      c,
		key:    core.MetricRangeCacheKey(q, eps, s.opts.Partition, m),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points), Radius: eps},
	}
}

// metricKNNRef resolves the front-cache slot for a gathered metric kNN
// query; putKNN fills the region radius in.
func (s *ShardedDB) metricKNNRef(q *core.Sequence, k int, m core.Metric) scatterRef {
	c := s.qcache.Load()
	if c == nil {
		return scatterRef{}
	}
	return scatterRef{
		c:      c,
		key:    core.MetricKNNCacheKey(q, k, s.opts.Partition, m),
		seq:    c.Seq(),
		region: cache.Region{Rect: geom.BoundingRect(q.Points)},
	}
}

// getMetric returns the cached gathered metric answer, stats flagged
// CacheHit.
func (r scatterRef) getMetric() ([]core.MetricMatch, core.SearchStats, bool) {
	if r.c == nil {
		return nil, core.SearchStats{}, false
	}
	v, ok := r.c.Get(r.key)
	if !ok {
		return nil, core.SearchStats{}, false
	}
	cs := v.Data.(*cachedMetricScatter)
	st := cs.stats
	st.CacheHit = true
	return cs.matches, st, true
}

// putMetric stores a completed metric gather under the pre-scatter
// write-sequence snapshot.
func (r scatterRef) putMetric(ms []core.MetricMatch, st core.SearchStats) {
	if r.c == nil {
		return
	}
	r.c.Put(r.key, r.seq, cache.Value{
		Data:    &cachedMetricScatter{matches: ms, stats: st},
		Bytes:   224 + 40*len(ms),
		Cost:    st.CPUTime,
		Region:  r.region,
		Partial: st.Partial,
	})
}
