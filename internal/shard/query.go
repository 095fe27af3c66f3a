package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ShardStats pairs a shard index with the statistics its local search
// produced (core.Result.PerShard), so callers can spot skewed shards.
type ShardStats = core.ShardStats

// Do answers q by scatter-gather: the one query path of a ShardedDB. Every
// shard answers q itself — core.Database.Do, or a transaction snapshot's —
// concurrently, at most scatterWorkers at a time but all at once for a kNN
// whose shards meet (see knnScatter), and the gather merges: ids
// rewritten to global ones, statistics folded by mergeStats, the per-shard
// statistics kept in Result.PerShard, and the matches put in the answer's
// order — ascending global id for a range, whose answer is the union of
// the per-shard answers and so identical, modulo id numbering, to one
// database holding every sequence; (distance, global id) for a kNN, whose
// shards share one live k-th-best bound (see knnScatter).
//
// The front cache (SetCache) is probed first, in the same slot a single
// database uses; its write-sequence counter is read before any shard is
// contacted, so a write landing mid-scatter makes the entry stored
// afterwards unservable, never stale.
//
// ctx's deadline (or a client disconnect) propagates into every per-shard
// search. The answer is every shard's or none: the first failing shard's
// error fails the query.
//
// A Scan is the oracle: the same fan-out and gather, without the cache and
// without metrics.
//
// The query is prepared here (core.Prepare), unless a layer above did: it is
// checked once, and the shards read one segmentation or one set of
// envelopes, built by the first of them to need it. The prepared form is
// released when Do returns, after every shard has.
func (s *ShardedDB) Do(ctx context.Context, q core.Query) (core.Result, error) {
	if q.Kind == core.KNN && q.K <= 0 {
		return core.Result{}, nil
	}
	q, own, err := core.Prepare(q, s.opts.Dim, s.opts.Partition)
	if err != nil {
		return core.Result{}, err
	}
	defer own.Release()
	call := func(ctx context.Context, i int) (core.Result, error) { return s.shards[i].Do(ctx, q) }
	workers := scatterWorkers(len(s.shards))
	if q.Kind == core.Scan {
		sc, err := scatter(ctx, s, workers, call, nil)
		if err != nil {
			return core.Result{}, err
		}
		return s.gather(q, sc.vals), nil
	}
	slot := core.SlotFor(s.qcache.Load(), q, s.opts.Partition)
	if res, ok := slot.Get(); ok {
		if tr := obs.FromContext(ctx); tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "front"))
		}
		return res, nil
	}
	t0 := time.Now()
	var done func(int, core.Result, error)
	var kn *knnScatter
	if q.Kind == core.KNN {
		kn = s.newKNNScatter(q)
		call, done = kn.call, kn.done
		workers = len(s.shards) // the shards meet: every one must be running
	}
	sc, err := scatter(ctx, s, workers, call, done)
	if err != nil {
		return core.Result{}, err
	}
	res := s.gather(q, sc.vals)
	_, dtw := q.Metric.(core.MetricDTW)
	met := s.metrics()
	if kn != nil {
		res.Matches = kn.out
		met.recordKNN(time.Since(t0), int(kn.seeded.Load()), int(kn.unseeded.Load()), kn.bound.Counts(), dtw)
	} else {
		met.recordScatter(sc.walls, res.Stats)
		if dtw {
			met.recordDTW(res.Stats)
		}
	}
	slot.Put(res)
	return res, nil
}

// scattered is what one fan-out brought back.
type scattered struct {
	vals  []core.Result   // per shard
	walls []time.Duration // per shard, launch to result: queueing included
}

// scatter is the one fan-out: call runs for every shard concurrently (at
// most workers at a time), and done, when not nil, runs once per shard
// when call returns, on that shard's goroutine, with what it returned.
// Once every shard has returned, the lowest-numbered failing shard's error
// fails the fan-out. The last shard runs on the calling goroutine, which
// would otherwise only wait: n−1 goroutines are started, not n, and the
// caller takes a worker slot like any of them. All n are still running at
// once when workers allows it, which a kNN's rendezvous needs.
//
// With a trace in ctx the whole fan-out is one "scatter" span and each
// shard a "shard" child, so a retained trace of a sharded query renders as
// a tree: which shard straggled, where each phase spent its time.
func scatter(ctx context.Context, s *ShardedDB, workers int,
	call func(ctx context.Context, shard int) (core.Result, error), done func(shard int, r core.Result, err error)) (scattered, error) {
	n := len(s.shards)
	tr := obs.FromContext(ctx)
	scatterCtx, endScatter := obs.StartSpan(ctx, "scatter")
	sc := scattered{vals: make([]core.Result, n), walls: make([]time.Duration, n)}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	run := func(i int) {
		t0 := time.Now()
		sem <- struct{}{}
		defer func() { <-sem }()
		shardCtx := scatterCtx
		var endShard func(...obs.Attr)
		if tr != nil {
			shardCtx, endShard = obs.StartSpan(scatterCtx, "shard")
		}
		v, err := call(shardCtx, i)
		if endShard != nil {
			endShard(obs.Int("shard", i), obs.Bool("ok", err == nil))
		}
		if done != nil {
			done(i, v, err)
		}
		sc.vals[i], sc.walls[i], errs[i] = v, time.Since(t0), err
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	run(n - 1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			endScatter(obs.Int("shards", n), obs.Int("failed_shard", i))
			return sc, fmt.Errorf("shard: shard %d: %w", i, err)
		}
	}
	endScatter(obs.Int("shards", n))
	return sc, nil
}

// gather is the one merge: every shard's answer — vals[i] from shard i —
// becomes one Result: statistics folded by mergeStats and kept per shard,
// and the matches copied under global ids in ascending id order — or, from
// a lone shard, taken as they are. A KNN's matches are left to the
// scatter, which has ranked them as the shards came in.
func (s *ShardedDB) gather(q core.Query, vals []core.Result) core.Result {
	res := core.Result{PerShard: make([]ShardStats, len(vals))}
	total := 0
	for i, r := range vals {
		total += len(r.Matches)
		res.PerShard[i] = ShardStats{Shard: i, Stats: r.Stats}
		mergeStats(&res.Stats, r.Stats)
	}
	if q.Kind == core.KNN {
		return res // knnScatter.merge has the neighbors
	}
	if len(vals) == 1 {
		// A lone shard's ids are the global ones and its list is in order:
		// it is the answer as it stands, read-only like every range answer.
		res.Matches = vals[0].Matches
		return res
	}
	res.Matches = slices.Grow(res.Matches, total) // stays nil when nothing matched
	for i, r := range vals {
		for _, m := range r.Matches {
			m.SeqID = s.globalID(i, m.SeqID)
			res.Matches = append(res.Matches, m)
		}
	}
	slices.SortFunc(res.Matches, func(a, b core.Match) int { return cmp.Compare(a.SeqID, b.SeqID) })
	return res
}

// mergeStats folds one shard's stats into the merged view. The semantics,
// explicitly:
//
//   - Counters (TotalSequences, CandidatesDmbr, MatchesDnorm,
//     IndexEntriesHit, DnormEvals) sum — they are disjoint per-shard work,
//     so the sums keep the pruning ratios exact.
//   - Phase1..Phase3 take the per-phase MAX: the shards run concurrently,
//     so summing them would overstate wall-clock by up to a factor of N.
//     The merged Total() is therefore an upper bound on the scatter's
//     wall-clock (each phase's max may come from a different shard), never
//     the cross-shard compute sum.
//   - CPUTime sums — it is the aggregate compute the scatter consumed
//     across all shards; CPUTime/Total() reads as effective parallelism —
//     except Phase1: the shards read one prepared query (core.Prepare),
//     whose segmentation or envelopes were built once and which every shard
//     reports as its Phase1, so the merged CPUTime counts Phase1 once, as
//     the per-phase max: each fold adds a shard's CPUTime less its Phase1,
//     plus what its Phase1 raises the max by.
//   - QueryMBRs is the same on every shard (same query, same
//     partitioning), so the first shard's value is taken and the rest are
//     ignored. Taking it once (instead of overwriting on every
//     fold) keeps the merged value correct even if a later shard's stats
//     are zero-valued or the fold order changes.
//   - CacheHit is not folded: an answer that missed the front cache
//     counts as computed.
func mergeStats(dst *core.SearchStats, st core.SearchStats) {
	if dst.QueryMBRs == 0 {
		dst.QueryMBRs = st.QueryMBRs
	}
	dst.TotalSequences += st.TotalSequences
	dst.CandidatesDmbr += st.CandidatesDmbr
	dst.MatchesDnorm += st.MatchesDnorm
	dst.IndexEntriesHit += st.IndexEntriesHit
	dst.DnormEvals += st.DnormEvals
	dst.DTWEnvPruned += st.DTWEnvPruned
	dst.DTWKeoghPruned += st.DTWKeoghPruned
	dst.DTWEvals += st.DTWEvals
	dst.QuantPruned += st.QuantPruned
	dst.CPUTime += st.CPUTime - st.Phase1
	if st.Phase1 > dst.Phase1 {
		dst.CPUTime += st.Phase1 - dst.Phase1
		dst.Phase1 = st.Phase1
	}
	if st.Phase2 > dst.Phase2 {
		dst.Phase2 = st.Phase2
	}
	if st.Phase3 > dst.Phase3 {
		dst.Phase3 = st.Phase3
	}
}

// The methods below are Do under the names bench/ compiles against — the
// harness is frozen until a benchmark-only PR re-points `bench/` — each a
// one-line adapter; DESIGN's "Query path" section lists, per name, the
// bench/ line that pins it. New code calls Do.

// SearchCtx is Do for the paper's range search.
func (s *ShardedDB) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	res, err := s.Do(ctx, core.Query{Seq: q, Eps: eps})
	return res.Matches, res.Stats, err
}

// SearchShardsCtx is SearchCtx plus Result.PerShard.
func (s *ShardedDB) SearchShardsCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, []ShardStats, error) {
	res, err := s.Do(ctx, core.Query{Seq: q, Eps: eps})
	return res.Matches, res.Stats, res.PerShard, err
}

// SearchMetricCtx is Do for a range search under m (nil means MetricD).
func (s *ShardedDB) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	if m == nil {
		m = core.MetricD{}
	}
	res, err := s.Do(ctx, core.Query{Seq: q, Eps: eps, Metric: m})
	return res.Matches, res.Stats, err
}

// SearchKNNCtx is Do for a kNN under D.
func (s *ShardedDB) SearchKNNCtx(ctx context.Context, q *core.Sequence, k int) ([]core.KNNResult, error) {
	return s.SearchKNNMetricCtx(ctx, q, k, nil)
}

// SearchKNNMetricCtx is Do for a kNN under m (nil means MetricD).
func (s *ShardedDB) SearchKNNMetricCtx(ctx context.Context, q *core.Sequence, k int, m core.Metric) ([]core.KNNResult, error) {
	res, err := s.Do(ctx, core.Query{Seq: q, Kind: core.KNN, K: k, Metric: m})
	return res.Matches, err
}

// SearchBatchCtx answers several of the paper's range queries: core.DoBatch
// with the router's Do, so each member is its own scatter and its own
// front-cache probe, and a repeat is answered once and flagged CacheHit.
func (s *ShardedDB) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	return core.DoBatch(ctx, s.Do, s.Dim(), s.opts.Partition, qs, eps)
}

// Explain runs the per-sequence decision record on every shard and merges
// the candidates under global ids, sorted ascending.
func (s *ShardedDB) Explain(q *core.Sequence, eps float64) (*core.Explanation, error) {
	var merged *core.Explanation
	for i, db := range s.shards {
		ex, err := db.Explain(q, eps)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		if merged == nil {
			merged = &core.Explanation{Eps: ex.Eps, QueryMBRs: ex.QueryMBRs}
		}
		for _, c := range ex.Candidates {
			c.SeqID = s.globalID(i, c.SeqID)
			merged.Candidates = append(merged.Candidates, c)
		}
	}
	sort.Slice(merged.Candidates, func(a, b int) bool {
		return merged.Candidates[a].SeqID < merged.Candidates[b].SeqID
	})
	return merged, nil
}
