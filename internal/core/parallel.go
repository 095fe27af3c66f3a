package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// SearchParallel is Search with phase 3 fanned out over a worker pool.
// Phase 3 dominates latency when many candidates survive the index pass
// (large ε, large corpora), and its per-candidate work is independent and
// read-only, so it parallelizes cleanly. workers <= 0 uses GOMAXPROCS.
// Results and statistics are identical to Search (same order, same
// matches); CPUTime additionally accounts the summed per-worker compute.
func (db *Database) SearchParallel(q *Sequence, eps float64, workers int) ([]Match, SearchStats, error) {
	return db.SearchParallelCtx(context.Background(), q, eps, workers)
}

// SearchParallelCtx is SearchParallel honoring a context deadline or
// cancellation: the phase 2 loop checks ctx per query MBR, and every
// phase-3 worker checks it once per cancelCheckEvery candidates — the
// same granularity as the serial SearchCtx — so cancellation reaches the
// pool even mid-refinement. The job feeder also watches ctx, so no
// goroutine blocks once it fires. A canceled search records nothing into
// the metrics registry and returns ctx's error wrapped the same way
// SearchCtx wraps it.
func (db *Database) SearchParallelCtx(ctx context.Context, q *Sequence, eps float64, workers int) ([]Match, SearchStats, error) {
	var st SearchStats
	if err := q.Validate(); err != nil {
		return nil, st, err
	}
	if q.Dim() != db.opts.Dim {
		return nil, st, fmt.Errorf("core: query dim %d, database dim %d: %w",
			q.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	if eps < 0 {
		return nil, st, fmt.Errorf("core: negative threshold %g", eps)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The parallel path produces byte-identical results to the serial
	// one, so it shares the serial path's cache entries (see SearchCtx
	// for the write-sequence snapshot ordering argument).
	ref := db.rangeRef(q, eps)
	tr := obs.FromContext(ctx)
	if ms, cst, ok := ref.getRange(); ok {
		if tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "result"))
		}
		return ms, cst, nil
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, st, errors.New("core: database closed")
	}
	if err := searchCanceled(ctx); err != nil {
		return nil, st, err
	}
	st.TotalSequences = db.live

	// One scratch owns the query segmentation and the phase-2 hit table;
	// the workers read both concurrently (read-only) while each draws its
	// own scratch from the pool for the phase-3 Dnorm arrays.
	sc := getScratch()
	defer putScratch(sc)

	ids, err := db.filterPhases(ctx, q, eps, sc, &st, tr)
	if err != nil {
		return nil, st, err
	}

	t2 := time.Now()

	type slot struct {
		m     Match
		hit   bool
		evals int
	}
	slots := make([]slot, len(ids))
	// busyNS accumulates each worker's phase-3 compute so CPUTime can
	// report the aggregate work the fan-out consumed, not the wall-clock
	// of the slowest worker (the old st.Total() accounting under-reported
	// CPU by up to a factor of `workers`).
	var busyNS atomic.Int64
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wsc := getScratch()
			defer putScratch(wsc)
			var busy time.Duration
			defer func() { busyNS.Add(int64(busy)) }()
			done := false
			n := 0
			for i := range jobs {
				if done {
					continue // drain so the feeder never blocks
				}
				if n%cancelCheckEvery == 0 && ctx.Err() != nil {
					done = true
					continue
				}
				n++
				jt := time.Now()
				id := ids[i]
				m, hit, evals := phase3Hits(sc.qmbrs, sc.hitRow(id), &wsc.p3, db.seqs[id], q.Len(), eps)
				m.SeqID = id
				slots[i] = slot{m: m, hit: hit, evals: evals}
				busy += time.Since(jt)
			}
		}()
	}
feed:
	for i := range ids {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := searchCanceled(ctx); err != nil {
		return nil, st, err
	}

	var out []Match
	for _, s := range slots {
		st.DnormEvals += s.evals
		if s.hit {
			out = append(out, s.m)
		}
	}
	st.MatchesDnorm = len(out)
	st.Phase3 = time.Since(t2)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "refine", st.Phase3,
			obs.Int("candidates_in", st.CandidatesDmbr),
			obs.Int("dnorm_evals", st.DnormEvals),
			obs.Int("matches", st.MatchesDnorm),
			obs.Int("workers", workers),
			obs.Float("pruned_frac", prunedFrac(st.CandidatesDmbr, st.MatchesDnorm)))
	}
	st.CPUTime = st.Phase1 + st.Phase2 + time.Duration(busyNS.Load())
	db.met.RecordSearch(st)
	ref.putRange(out, st)
	return out, st, nil
}
