package shard

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

// SearchBatchCtx answers several of the paper's range queries with one
// scatter instead of one per query: Do's cache slot, fan-out and merge,
// with a list of queries as each shard's unit of work. Each query's answer
// is identical to what Do would return for it alone. Work is saved at
// three levels: duplicate queries collapse before the fan-out, queries
// already in the front cache never reach a shard, and each shard answers
// the rest in one call — consulting its local cache per query — so the
// fan-out's goroutines, spans and policy bookkeeping are paid once.
//
// That call is one unit to the fault-tolerance Policy: a shard's timeout,
// retries and hedge cover its whole list, and with Policy.AllowPartial a
// failed shard drops out of every query's merge — all answers in the batch
// then carry Partial and the same ShardsAnswered. A query a shard refuses
// (core.Query.Check) fails the whole batch: it is all-or-nothing, so
// callers never pair partial outputs with their inputs.
func (s *ShardedDB) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	// Collapse duplicates; answer what the front cache already holds. Each
	// slot reads the cache's write-sequence counter here, before any shard
	// is contacted.
	type unique struct {
		slot core.CacheSlot
		res  core.Result
	}
	c := s.qcache.Load()
	at := make(map[cache.Key]int, len(qs))
	assign := make([]int, len(qs))
	var uniq []*unique
	var miss []*unique
	var missQs []core.Query
	for i, seq := range qs {
		if seq == nil {
			return nil, nil, fmt.Errorf("shard: batch query %d is nil", i)
		}
		q := core.Query{Seq: seq, Eps: eps}
		slot := core.SlotFor(c, q, s.opts.Partition)
		key, ok := slot.Key()
		if !ok {
			key = core.CacheKey(q, s.opts.Partition)
		}
		j, ok := at[key]
		if !ok {
			j = len(uniq)
			at[key] = j
			u := &unique{slot: slot}
			uniq = append(uniq, u)
			if u.res, ok = slot.Get(); !ok {
				miss = append(miss, u)
				missQs = append(missQs, q)
			}
		}
		assign[i] = j
	}

	if len(miss) > 0 {
		sc, err := scatter(ctx, s, s.Policy(), func(ctx context.Context, _ int, b Backend) ([]core.Result, error) {
			out := make([]core.Result, len(missQs))
			for j, q := range missQs {
				var err error
				if out[j], err = b.Do(ctx, q); err != nil {
					return nil, fmt.Errorf("batch query %d: %w", j, err)
				}
			}
			return out, nil
		}, nil)
		if err != nil {
			return nil, nil, err
		}
		merged := make([]core.SearchStats, len(miss))
		for j, u := range miss {
			u.res = s.gather(missQs[j], sc.shards, func(i int) core.Result { return sc.vals[i][j] })
			u.slot.Put(u.res)
			merged[j] = u.res.Stats
		}
		s.metrics().recordScatter(sc.walls, merged...)
	}

	outs := make([][]core.Match, len(qs))
	stats := make([]core.SearchStats, len(qs))
	seen := make([]bool, len(uniq))
	for i, j := range assign {
		outs[i] = uniq[j].res.Matches
		stats[i] = uniq[j].res.Stats
		if seen[j] {
			stats[i].CacheHit = true // duplicate: served without compute
		}
		seen[j] = true
	}
	return outs, stats, nil
}
