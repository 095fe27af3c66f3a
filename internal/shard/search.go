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
// produced, so callers can spot skewed shards.
type ShardStats struct {
	Shard int              // shard index within the ShardedDB
	Stats core.SearchStats // that shard's local search statistics
}

// Search runs the three-phase range search on every shard concurrently
// (bounded worker pool) and merges the answers. The result set is the
// union of the per-shard sets — identical, modulo global-id ordering, to
// a single-node search over the same corpus — returned in ascending
// global id order. Merged stats sum the per-shard counters; phase times
// are the slowest shard's (phases overlap in wall-clock).
func (s *ShardedDB) Search(q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	return s.SearchCtx(context.Background(), q, eps)
}

// SearchCtx is Search under a caller context: the deadline (or a client
// disconnect) propagates into every per-shard search, and the per-shard
// calls run under the fault-tolerance Policy in force — timeout, retry,
// hedging, and (with AllowPartial) graceful degradation to a result
// flagged Partial.
func (s *ShardedDB) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	matches, st, _, err := s.scatterSearch(ctx, q, eps, 0)
	return matches, st, err
}

// SearchParallel satisfies the single-node signature. The cross-shard
// scatter already supplies the parallelism (bounded by workers when > 0),
// so each shard runs its serial search; results equal Search exactly.
func (s *ShardedDB) SearchParallel(q *core.Sequence, eps float64, workers int) ([]core.Match, core.SearchStats, error) {
	return s.SearchParallelCtx(context.Background(), q, eps, workers)
}

// SearchParallelCtx is SearchParallel under a caller context: the
// deadline (or a client disconnect) propagates into every per-shard
// search exactly as in SearchCtx, so a parallel query can no longer
// outlive its caller.
func (s *ShardedDB) SearchParallelCtx(ctx context.Context, q *core.Sequence, eps float64, workers int) ([]core.Match, core.SearchStats, error) {
	matches, st, _, err := s.scatterSearch(ctx, q, eps, workers)
	return matches, st, err
}

// SearchShards is Search plus the per-shard statistics.
func (s *ShardedDB) SearchShards(q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, []ShardStats, error) {
	return s.scatterSearch(context.Background(), q, eps, 0)
}

// SearchShardsCtx is SearchShards under a caller context (see SearchCtx).
// On a partial answer the returned slice holds only the shards that
// answered, so its Shard fields are the authoritative list of shards the
// result covers.
func (s *ShardedDB) SearchShardsCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, []ShardStats, error) {
	return s.scatterSearch(ctx, q, eps, 0)
}

// searchReply carries one shard's range-search answer through robustCall.
type searchReply struct {
	matches []core.Match
	stats   core.SearchStats
}

// scatterSearch fans the query out under the current Policy and gathers.
// Shard failures either fail the query (the first failing shard's error,
// fail-fast) or — with Policy.AllowPartial — drop that shard from the
// merge and flag the result Partial. The merged stats always carry
// ShardsAnswered so callers can tell a complete answer from a degraded
// one without consulting the per-shard slice.
func (s *ShardedDB) scatterSearch(ctx context.Context, q *core.Sequence, eps float64, workers int) ([]core.Match, core.SearchStats, []ShardStats, error) {
	// Front cache: a repeated query skips the whole fan-out. The cache's
	// write-sequence counter is snapshotted here, before any shard is
	// contacted, so a write landing mid-scatter makes the entry stored
	// below unservable, never stale.
	ref := s.rangeRef(q, eps)
	tr := obs.FromContext(ctx)
	if ms, st, ps, ok := ref.get(); ok {
		if tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "front"))
		}
		return ms, st, ps, nil
	}
	n := len(s.shards)
	pol := s.Policy()
	met := s.metrics()
	if workers <= 0 || workers > n {
		workers = scatterWorkers(n)
	}
	// The scatter span wraps the whole fan-out; per-shard child spans (and
	// their per-attempt grandchildren from robustCall) nest under it, so a
	// retained trace of a sharded query renders as a tree: which shard
	// straggled, whether a hedge won, where each phase spent its time.
	scatterCtx, endScatter := obs.StartSpan(ctx, "scatter")
	type result struct {
		matches []core.Match
		stats   core.SearchStats
		wall    time.Duration // launch-to-result, queueing + retries included
		err     error
	}
	results := make([]result, n)
	sem := make(chan struct{}, workers)
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
			rep, err := robustCall(shardCtx, pol, met, func(actx context.Context) (searchReply, error) {
				m, st, err := b.SearchCtx(actx, q, eps)
				return searchReply{matches: m, stats: st}, err
			})
			if endShard != nil {
				endShard(obs.Int("shard", i), obs.Bool("ok", err == nil))
			}
			results[i] = result{matches: rep.matches, stats: rep.stats, wall: time.Since(t0), err: err}
		}(i)
	}
	wg.Wait()

	var merged core.SearchStats
	perShard := make([]ShardStats, 0, n)
	total := 0
	for _, r := range results {
		total += len(r.matches)
	}
	out := slices.Grow([]core.Match(nil), total) // stays nil when nothing matched
	var firstErr error
	for i, r := range results {
		if r.err != nil {
			if !pol.AllowPartial {
				endScatter(obs.Int("shards", n), obs.Int("failed_shard", i))
				return nil, merged, nil, fmt.Errorf("shard: shard %d: %w", i, r.err)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("shard: shard %d: %w", i, r.err)
			}
			continue
		}
		for _, m := range r.matches {
			m.SeqID = s.globalID(i, m.SeqID)
			out = append(out, m)
		}
		perShard = append(perShard, ShardStats{Shard: i, Stats: r.stats})
		mergeStats(&merged, r.stats)
	}
	merged.ShardsAnswered = len(perShard)
	merged.Partial = len(perShard) < n
	endScatter(obs.Int("shards", n),
		obs.Int("shards_answered", merged.ShardsAnswered),
		obs.Bool("partial", merged.Partial))
	if merged.Partial {
		tr.MarkPartial()
	}
	if len(perShard) == 0 {
		// Nothing answered: an "empty partial" would be indistinguishable
		// from a genuinely empty corpus, so total failure stays an error.
		return nil, merged, nil, firstErr
	}
	if len(perShard) > 1 { // one shard's list is already ascending
		slices.SortFunc(out, func(a, b core.Match) int { return cmp.Compare(a.SeqID, b.SeqID) })
	}
	if met != nil {
		durs := make([]time.Duration, n)
		for i, r := range results {
			durs[i] = r.wall
		}
		met.recordScatter(merged, durs)
	}
	ref.put(out, merged, perShard)
	return out, merged, perShard, nil
}

// mergeStats folds one shard's stats into the merged view. On a partial
// gather only the answered shards are folded, so every rule below reads
// "over the answered shards": the pruning ratios stay exact for the
// corpus slice the answer actually covers, and Total()/CPUTime describe
// only work that contributed to the result. The gather layer — not
// mergeStats — stamps Partial and ShardsAnswered afterwards. The
// semantics, explicitly:
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

// SequentialSearch runs the exact scan baseline on every shard
// concurrently and merges by ascending global id.
func (s *ShardedDB) SequentialSearch(q *core.Sequence, eps float64) ([]core.ScanResult, error) {
	n := len(s.shards)
	results := make([][]core.ScanResult, n)
	errs := make([]error, n)
	sem := make(chan struct{}, scatterWorkers(n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = s.shards[i].SequentialSearch(q, eps)
		}(i)
	}
	wg.Wait()
	var out []core.ScanResult
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
