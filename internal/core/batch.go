package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// batchQuery is the per-unique-query state threaded through the batch
// phases.
type batchQuery struct {
	q      *Sequence
	ref    CacheSlot
	qseg   *Segmented
	probes []int // per query MBR, the index of its merged phase-2 probe
	st     SearchStats
	out    []Match
	done   bool // answered from cache
	first  int  // index in qs of the first occurrence (for error messages)
}

// SearchBatchCtx answers several of the paper's range queries with one
// pass over the database. Results and statistics for each query are
// identical to what Do would return for it alone, and each shares Do's
// cache slot; the batch saves work three ways: duplicate queries are
// computed once, cached queries (SetCache) are answered without touching
// the index, and index probes for identical query MBRs are merged across
// the remaining queries, so the R*-tree is descended once per distinct
// rectangle instead of once per query. The whole batch runs under a single
// read lock, so every answer reflects the same corpus snapshot. ctx is
// honored with Do's granularity: between phases, per index probe, and
// every cancelCheckEvery phase-3 candidates. One query failing Query.Check
// fails the whole batch before any work runs — a batch is all-or-nothing,
// so callers never have to pair partial outputs with their inputs.
func (db *Database) SearchBatchCtx(ctx context.Context, qs []*Sequence, eps float64) ([][]Match, []SearchStats, error) {
	for i, q := range qs {
		if err := (Query{Seq: q, Eps: eps}).Check(db.opts.Dim); err != nil {
			return nil, nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	if len(qs) == 0 {
		return nil, nil, nil
	}

	tr := obs.FromContext(ctx)
	t0 := time.Now()

	// Dedup by fingerprint: identical queries collapse to one slot. The
	// fingerprint doubles as the cache key, and each slot's write-sequence
	// snapshot is taken here, before the lock.
	c := db.qcache.Load()
	slot := make(map[cache.Key]int, len(qs)) // fingerprint → index into uniq
	assign := make([]int, len(qs))           // qs index → uniq index
	uniq := make([]*batchQuery, 0, len(qs))
	for i, q := range qs {
		ref := SlotFor(c, Query{Seq: q, Eps: eps}, db.opts.Partition)
		key, ok := ref.Key()
		if !ok {
			key = RangeCacheKey(q, eps, db.opts.Partition)
		}
		j, ok := slot[key]
		if !ok {
			j = len(uniq)
			slot[key] = j
			uniq = append(uniq, &batchQuery{q: q, ref: ref, first: i})
		}
		assign[i] = j
	}

	// Cache pass: answer what we can before taking the lock.
	pending := 0
	for _, bq := range uniq {
		if res, ok := bq.ref.Get(); ok {
			bq.out, bq.st, bq.done = res.Matches, res.Stats, true
			continue
		}
		pending++
	}

	if pending > 0 {
		if err := db.searchBatchLocked(ctx, uniq, eps); err != nil {
			return nil, nil, err
		}
	}
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "batch", time.Since(t0),
			obs.Int("queries", len(qs)),
			obs.Int("unique", len(uniq)),
			obs.Int("cache_hits", len(uniq)-pending))
	}

	outs := make([][]Match, len(qs))
	stats := make([]SearchStats, len(qs))
	seen := make([]bool, len(uniq))
	for i, j := range assign {
		bq := uniq[j]
		outs[i] = bq.out
		stats[i] = bq.st
		if seen[j] {
			// A duplicate is served without compute, like a cache hit;
			// the stats still describe the run that produced the answer.
			stats[i].CacheHit = true
		}
		seen[j] = true
	}
	return outs, stats, nil
}

// searchBatchLocked computes every not-yet-answered query in uniq under
// one read lock, merging phase-2 probes for identical query MBRs.
func (db *Database) searchBatchLocked(ctx context.Context, uniq []*batchQuery, eps float64) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return errClosed
	}
	if err := searchCanceled(ctx); err != nil {
		return err
	}

	// Phase 1, per query: segmentation is query-local, nothing to merge.
	for _, bq := range uniq {
		if bq.done {
			continue
		}
		t0 := time.Now()
		qseg, err := NewSegmented(bq.q, db.opts.Partition)
		if err != nil {
			return fmt.Errorf("core: batch query %d: %w", bq.first, err)
		}
		bq.qseg = qseg
		bq.st.TotalSequences = db.live
		bq.st.QueryMBRs = len(qseg.MBRs)
		bq.st.Phase1 = time.Since(t0)
	}

	// Phase 2, merged: group identical query MBRs across the batch and
	// descend the index once per distinct rectangle. Each owner's stats
	// are charged the probe's full cost — the answer each query receives
	// is exactly what a solo search would have paid for, so reuse shows
	// up in the batch's wall clock, not as understated per-query stats.
	type probe struct {
		rect geom.Rect
		refs []rtree.Ref   // the index entries within ε of rect
		d    time.Duration // what the descent cost
	}
	probeAt := make(map[cache.Key]int)
	var probes []probe
	for _, bq := range uniq {
		if bq.done {
			continue
		}
		for _, qm := range bq.qseg.MBRs {
			f := newFP()
			for _, v := range qm.Rect.L {
				f.float(v)
			}
			for _, v := range qm.Rect.H {
				f.float(v)
			}
			k := f.key()
			j, ok := probeAt[k]
			if !ok {
				j = len(probes)
				probeAt[k] = j
				probes = append(probes, probe{rect: qm.Rect})
			}
			bq.probes = append(bq.probes, j)
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	for j := range probes {
		if err := searchCanceled(ctx); err != nil {
			return err
		}
		t1 := time.Now()
		var err error
		sc.refs, err = db.tree.AppendWithinDist(probes[j].rect, eps, sc.refs[:0])
		if err != nil {
			return err
		}
		probes[j].refs = slices.Clone(sc.refs)
		probes[j].d = time.Since(t1)
	}

	// Per query: replay its probes into the hit table — query MBR i's
	// bit for every sequence probe i reached, exactly what a solo search
	// records — then refine. Refinement depends on the query's own
	// segmentation, so there is nothing to share beyond the corpus pages
	// already warmed by neighbors in the batch.
	for _, bq := range uniq {
		if bq.done {
			continue
		}
		t1 := time.Now()
		sc.beginHits(len(db.seqs), len(bq.probes))
		for qi, j := range bq.probes {
			bq.st.IndexEntriesHit += len(probes[j].refs)
			bq.st.Phase2 += probes[j].d
			sc.markHits(probes[j].refs, qi)
		}
		sc.sortIDs()
		bq.st.CandidatesDmbr = len(sc.ids)
		t2 := time.Now()
		bq.st.Phase2 += t2.Sub(t1)
		var err error
		bq.out, err = db.refine(ctx, bq.qseg.MBRs, sc.ids, bq.q.Len(), eps, sc, &bq.st)
		if err != nil {
			return err
		}
		bq.st.Phase3 = time.Since(t2)
		bq.st.CPUTime = bq.st.Total()
		db.met.RecordSearch(bq.st)
		bq.ref.Put(Result{Matches: bq.out, Stats: bq.st})
		bq.done = true
	}
	return nil
}
