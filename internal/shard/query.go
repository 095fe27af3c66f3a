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
// concurrently on a bounded worker pool, and the gather merges: ids
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
// afterwards unservable, never stale. Partial answers are not stored.
//
// The per-shard calls go through each shard's Backend under the
// fault-tolerance Policy in force: ctx's deadline (or a client disconnect)
// propagates into every per-shard search, each call gets the policy's
// timeout, retries and hedge, and with Policy.AllowPartial a shard that
// exhausts its attempts is dropped from the merge and the answer flagged
// Stats.Partial — ShardsAnswered and PerShard say which shards it covers. A
// partial range answer is a correct subset (the answered shards' results
// are exact); a partial kNN is the exact top k of the answered shards'
// slice of the corpus only, true neighbors stored on the skipped shard
// silently missing, which is why callers must read the flag. Without
// AllowPartial the first failing shard's error fails the query, and no
// shard answering is an error under either setting: an empty partial would
// be indistinguishable from a genuinely empty corpus.
//
// A Scan is the oracle, and runs outside all of that: see scan.
func (s *ShardedDB) Do(ctx context.Context, q core.Query) (core.Result, error) {
	if q.Kind == core.Scan {
		return s.scan(ctx, q)
	}
	if q.Kind == core.KNN && q.K <= 0 {
		return core.Result{}, nil
	}
	slot := core.SlotFor(s.qcache.Load(), q, s.opts.Partition)
	if res, ok := slot.Get(); ok {
		if tr := obs.FromContext(ctx); tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "front"))
		}
		return res, nil
	}
	t0 := time.Now()
	pol := s.Policy()
	call := func(ctx context.Context, _ int, b Backend) (core.Result, error) { return b.Do(ctx, q) }
	var done func(int, core.Result)
	var kn *knnScatter
	if q.Kind == core.KNN {
		kn = s.newKNNScatter(q, pol)
		call, done = kn.call, kn.merge
	}
	sc, err := scatter(ctx, s, pol, call, done)
	if err != nil {
		return core.Result{}, err
	}
	res := s.gather(q, sc.shards, func(i int) core.Result { return sc.vals[i] })
	_, dtw := q.Metric.(core.MetricDTW)
	met := s.metrics()
	if kn != nil {
		res.Matches = kn.out
		if res.Stats.Partial {
			met.incPartial()
		}
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
type scattered[T any] struct {
	vals   []T             // per shard; the zero value where the shard failed
	walls  []time.Duration // per shard, launch to result: queueing and retries included
	shards []int           // the shards that answered, ascending
}

// scatter is the one fan-out: call runs against every shard's Backend
// concurrently (at most scatterWorkers at a time), each under robustCall —
// so whatever call does for one shard, one query or a batch of them, is one
// unit to the policy's timeout, retries and hedge — and done, when not nil,
// runs once per shard that answered, on that shard's goroutine, with what
// the winning attempt returned. The failures are then judged by the policy
// (see Do): an error, or the list of shards that answered.
//
// With a trace in ctx the whole fan-out is one "scatter" span, each shard a
// "shard" child and each launched call an "attempt" grandchild (robustCall),
// so a retained trace of a sharded query renders as a tree: which shard
// straggled, whether a hedge won, where each phase spent its time. A
// degraded answer marks the trace partial.
func scatter[T any](ctx context.Context, s *ShardedDB, pol Policy,
	call func(ctx context.Context, shard int, b Backend) (T, error), done func(shard int, v T)) (scattered[T], error) {
	n := len(s.shards)
	met := s.metrics()
	tr := obs.FromContext(ctx)
	scatterCtx, endScatter := obs.StartSpan(ctx, "scatter")
	sc := scattered[T]{vals: make([]T, n), walls: make([]time.Duration, n), shards: make([]int, 0, n)}
	errs := make([]error, n)
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
			v, err := robustCall(shardCtx, pol, met, func(actx context.Context) (T, error) { return call(actx, i, b) })
			if endShard != nil {
				endShard(obs.Int("shard", i), obs.Bool("ok", err == nil))
			}
			if err == nil && done != nil {
				done(i, v)
			}
			sc.vals[i], sc.walls[i], errs[i] = v, time.Since(t0), err
		}(i)
	}
	wg.Wait()

	var firstErr error
	for i, err := range errs {
		if err == nil {
			sc.shards = append(sc.shards, i)
			continue
		}
		if !pol.AllowPartial {
			endScatter(obs.Int("shards", n), obs.Int("failed_shard", i))
			return sc, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("shard: shard %d: %w", i, err)
		}
	}
	partial := len(sc.shards) < n
	endScatter(obs.Int("shards", n), obs.Int("shards_answered", len(sc.shards)), obs.Bool("partial", partial))
	if partial {
		tr.MarkPartial()
	}
	if len(sc.shards) == 0 {
		return sc, firstErr
	}
	return sc, nil
}

// gather is the one merge: the answers of the shards that answered, as
// part hands them out, become one Result — statistics folded by mergeStats
// and kept per shard, Partial and ShardsAnswered stamped, and the matches
// copied under global ids (a shard's slice may be shared with its cache) in
// ascending id order — or, from a lone shard, taken as they are. A KNN's matches are left to the scatter, which has
// ranked them as the shards came in.
func (s *ShardedDB) gather(q core.Query, shards []int, part func(shard int) core.Result) core.Result {
	res := core.Result{PerShard: make([]ShardStats, 0, len(shards))}
	total := 0
	for _, i := range shards {
		r := part(i)
		total += len(r.Matches)
		res.PerShard = append(res.PerShard, ShardStats{Shard: i, Stats: r.Stats})
		mergeStats(&res.Stats, r.Stats)
	}
	res.Stats.ShardsAnswered = len(shards)
	res.Stats.Partial = len(shards) < len(s.shards)
	if q.Kind == core.KNN {
		return res // knnScatter.merge has the neighbors
	}
	if len(s.shards) == 1 {
		// A lone shard's ids are the global ones and its list is in order:
		// it is the answer as it stands, shared with that shard's cache and
		// read-only like every range answer.
		res.Matches = part(0).Matches
		return res
	}
	res.Matches = slices.Grow(res.Matches, total) // stays nil when nothing matched
	for _, i := range shards {
		for _, m := range part(i).Matches {
			m.SeqID = s.globalID(i, m.SeqID)
			res.Matches = append(res.Matches, m)
		}
	}
	if len(shards) > 1 { // one shard's list is already ascending
		slices.SortFunc(res.Matches, func(a, b core.Match) int { return cmp.Compare(a.SeqID, b.SeqID) })
	}
	return res
}

// scan is Do for a Scan, the exhaustive baseline every indexed answer is
// tested against: each shard's own database scans its slice, concurrently,
// and the answers are gathered like any other. It asks the shards
// themselves, not their Backends, and runs under no Policy and no cache, so
// the reference side of a comparison can neither consume a FaultDB script
// nor be degraded by the faults the other side is being tested under.
func (s *ShardedDB) scan(ctx context.Context, q core.Query) (core.Result, error) {
	n := len(s.shards)
	results := make([]core.Result, n)
	errs := make([]error, n)
	all := make([]int, n)
	sem := make(chan struct{}, scatterWorkers(n))
	var wg sync.WaitGroup
	for i := range all {
		all[i] = i
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = s.shards[i].Do(ctx, q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return core.Result{}, fmt.Errorf("shard: shard %d: %w", i, err)
		}
	}
	return s.gather(q, all, func(i int) core.Result { return results[i] }), nil
}

// mergeStats folds one shard's stats into the merged view. On a partial
// gather only the answered shards are folded, so every rule below reads
// "over the answered shards": the pruning ratios stay exact for the
// corpus slice the answer actually covers, and Total()/CPUTime describe
// only work that contributed to the result. The gather — not mergeStats —
// stamps Partial and ShardsAnswered afterwards. The semantics, explicitly:
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
//     across all shards; CPUTime/Total() reads as effective parallelism.
//   - QueryMBRs is the same on every shard (same query, same
//     partitioning), so the first answered shard's value is taken and the
//     rest are ignored. Taking it once (instead of overwriting on every
//     fold) keeps the merged value correct even if a later shard's stats
//     are zero-valued or the fold order changes.
//   - CacheHit is not folded: shards serve from their caches
//     independently, so a merged flag would be ambiguous; an answer that
//     missed the front cache counts as computed.
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
	dst.CPUTime += st.CPUTime
	if st.Phase1 > dst.Phase1 {
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

// CandidatesDmbr returns the union of the per-shard phase-2 candidate
// sets, keyed by global id.
func (s *ShardedDB) CandidatesDmbr(q *core.Sequence, eps float64) (map[uint32]bool, error) {
	out := make(map[uint32]bool)
	for i, db := range s.shards {
		c, err := db.CandidatesDmbr(q, eps)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		for local := range c {
			out[s.globalID(i, local)] = true
		}
	}
	return out, nil
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
