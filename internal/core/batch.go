package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// SearchBatchCtx answers several of the paper's range queries: DoBatch with
// the database's Do. Each answer and its statistics are what Do returns for
// the query alone; a repeat is answered once.
func (db *Database) SearchBatchCtx(ctx context.Context, qs []*Sequence, eps float64) ([][]Match, []SearchStats, error) {
	return DoBatch(ctx, db.Do, db.opts.Dim, db.opts.Partition, qs, eps)
}

// DoBatch answers the paper's range query at eps for every sequence of qs
// through do — a layer's Do, for a database of dimension dim partitioning
// queries with cfg — and returns the answers and statistics in input order.
// Every query is prepared (Prepare, which checks it) before any runs, so a
// batch is all-or-nothing and callers never pair partial outputs with their
// inputs; the error names the query's index. do is handed the prepared
// queries and checks none of them again. Queries that share a CacheKey are
// one query: do runs once per distinct query, in input order, and each
// repeat gets the first one's answer with its stats flagged CacheHit —
// served without compute, as from a cache. ctx is Do's: a fired context
// fails the batch. The batch records one "batch" span.
func DoBatch(ctx context.Context, do func(context.Context, Query) (Result, error), dim int, cfg PartitionConfig, qs []*Sequence, eps float64) ([][]Match, []SearchStats, error) {
	prepared := make([]Query, len(qs))
	owns := make([]*Prepared, len(qs))
	defer func() {
		for _, p := range owns {
			p.Release()
		}
	}()
	for i, seq := range qs {
		var err error
		if prepared[i], owns[i], err = Prepare(Query{Seq: seq, Eps: eps}, dim, cfg); err != nil {
			return nil, nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	if len(qs) == 0 {
		return nil, nil, nil
	}
	t0 := time.Now()
	outs := make([][]Match, len(qs))
	stats := make([]SearchStats, len(qs))
	first := make(map[cache.Key]int, len(qs))
	hits := 0
	for i, q := range prepared {
		key, _ := q.cacheKey(cfg)
		if j, ok := first[key]; ok {
			outs[i], stats[i] = outs[j], stats[j]
			stats[i].CacheHit = true
			continue
		}
		first[key] = i
		res, err := do(ctx, q)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		outs[i], stats[i] = res.Matches, res.Stats
		if res.Stats.CacheHit {
			hits++
		}
	}
	if tr := obs.FromContext(ctx); tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "batch", time.Since(t0),
			obs.Int("queries", len(qs)),
			obs.Int("unique", len(first)),
			obs.Int("cache_hits", hits))
	}
	return outs, stats, nil
}
