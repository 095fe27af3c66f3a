package txn

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
)

// Snap is a pinned MVCC read snapshot: an immutable view of the corpus
// as of one commit. All its query methods answer from exactly that
// version no matter how many commits land meanwhile, and none of them
// takes a lock a writer ever holds — readers never block on writers.
// Release it when done: a pinned snapshot delays the next checkpoint's
// fold (commits themselves are never delayed). A Snap is safe for
// concurrent use.
type Snap struct {
	db       *DB
	st       *state
	slot     uint32
	released atomic.Bool
	once     sync.Once
	v        *view
}

// Acquire pins a read snapshot at the current commit. The pin is a pair
// of atomic ops — no lock is shared with the commit path.
func (db *DB) Acquire() *Snap {
	for {
		gen := db.pinGen.Load()
		db.pins[gen&1].Add(1)
		if db.pinGen.Load() == gen {
			n := db.stats.snapshots.Add(1)
			if m := db.met.Load(); m != nil {
				m.pinned.Set(float64(n))
			}
			return &Snap{db: db, st: db.cur.Load(), slot: uint32(gen & 1)}
		}
		// A checkpoint moved generations between our load and pin;
		// back out and pin the new generation.
		db.pins[gen&1].Add(-1)
	}
}

// Release unpins the snapshot. Idempotent.
func (s *Snap) Release() {
	if s.released.CompareAndSwap(false, true) {
		n := s.db.stats.snapshots.Add(-1)
		s.db.pins[s.slot].Add(-1)
		if m := s.db.met.Load(); m != nil {
			m.pinned.Set(float64(n))
		}
	}
}

// Epoch returns the commit version the snapshot is pinned to.
func (s *Snap) Epoch() uint64 { return s.st.epoch }

// view lazily resolves the pinned state's delta into lookup form, once
// per snapshot.
func (s *Snap) view() *view {
	s.once.Do(func() { s.v = buildView(s.st) })
	return s.v
}

// qseg partitions the query with the database's configuration — the
// same partitioning the indexed search computes, so delta-side kernels
// see identical query MBRs.
func (s *Snap) qseg(q *core.Sequence) (*core.Segmented, error) {
	return core.NewSegmented(q, s.db.base.PartitionConfig())
}

// dmbrQualifies is the linear-scan form of phase 2: a delta sequence
// stays a candidate only if some (query MBR, data MBR) pair is within
// eps. Dmbr lower-bounds Dnorm (Lemma 2), so skipping a non-qualifying
// sequence cannot change results — phase 3 would have reported
// hit=false for it — and the squared-space comparison matches the
// indexed path's kernel (MinDistSq vs eps²) bit for bit.
func dmbrQualifies(qseg *core.Segmented, g *core.Segmented, epsSq float64) bool {
	for _, qm := range qseg.MBRs {
		for _, gm := range g.MBRs {
			if qm.Rect.MinDistSq(gm.Rect) <= epsSq {
				return true
			}
		}
	}
	return false
}

// deltaRange evaluates the range predicate over the snapshot's delta
// sequences: the phase-2 Dmbr prune over each sequence's MBRs, then the
// indexed path's phase-3 kernel for the survivors. Results come back
// in ascending id order.
func (s *Snap) deltaRange(ctx context.Context, q *core.Sequence, eps float64, st *core.SearchStats) ([]core.Match, error) {
	v := s.view()
	if len(v.delta) == 0 {
		return nil, nil
	}
	t0 := time.Now()
	qseg, err := s.qseg(q)
	if err != nil {
		return nil, err
	}
	epsSq := eps * eps
	var out []core.Match
	for i, d := range v.delta {
		if i&31 == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		if !dmbrQualifies(qseg, d.g, epsSq) {
			continue
		}
		m, hit, evals := core.EvalRange(qseg, d.g, eps)
		st.DnormEvals += evals
		st.CandidatesDmbr++
		if hit {
			m.SeqID = d.id
			out = append(out, m)
		}
	}
	d := time.Since(t0)
	st.Phase3 += d
	st.CPUTime += d
	if tr := obs.FromContext(ctx); tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "delta-scan", d,
			obs.Int64("snapshot_epoch", int64(s.st.epoch)),
			obs.Int("delta_len", s.st.deltaLen()),
			obs.Int("matches", len(out)))
	}
	return out, nil
}

// mergeMatches merges two id-ascending match lists, dropping base
// entries the view supersedes.
func mergeMatches(base []core.Match, v *view, delta []core.Match) []core.Match {
	out := make([]core.Match, 0, len(base)+len(delta))
	i, j := 0, 0
	for i < len(base) || j < len(delta) {
		if i < len(base) && v.dropBase(base[i].SeqID) {
			i++
			continue
		}
		switch {
		case i >= len(base):
			out = append(out, delta[j])
			j++
		case j >= len(delta) || base[i].SeqID < delta[j].SeqID:
			out = append(out, base[i])
			i++
		default:
			out = append(out, delta[j])
			j++
		}
	}
	return out
}

// fixupStats rewrites the base search's corpus-level counters to the
// snapshot's view: sequence totals and match counts, with the delta
// scan's work already accumulated by deltaRange.
func (s *Snap) fixupStats(st *core.SearchStats, matches int) {
	st.TotalSequences = s.st.live
	st.MatchesDnorm = matches
	st.CacheHit = false
}

// SearchCtx runs the three-phase range search against the snapshot:
// indexed base result, filtered by the delta, merged with a linear
// delta scan using the same evaluation kernels — identical output to a
// fully indexed database holding this snapshot's content.
func (s *Snap) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	matches, stats, err := s.db.base.SearchCtx(ctx, q, eps)
	if err != nil {
		return nil, stats, err
	}
	if s.st.deltaLen() == 0 {
		return matches, stats, nil
	}
	delta, err := s.deltaRange(ctx, q, eps, &stats)
	if err != nil {
		return nil, stats, err
	}
	merged := mergeMatches(matches, s.view(), delta)
	s.fixupStats(&stats, len(merged))
	return merged, stats, nil
}

// Search is SearchCtx without a deadline.
func (s *Snap) Search(q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	return s.SearchCtx(context.Background(), q, eps)
}

// SearchParallelCtx is SearchCtx with the base's phase 3 refined by
// that many workers (the delta scan stays serial — it is bounded by the
// checkpoint cadence, not the corpus).
func (s *Snap) SearchParallelCtx(ctx context.Context, q *core.Sequence, eps float64, workers int) ([]core.Match, core.SearchStats, error) {
	matches, stats, err := s.db.base.SearchParallelCtx(ctx, q, eps, workers)
	if err != nil {
		return nil, stats, err
	}
	if s.st.deltaLen() == 0 {
		return matches, stats, nil
	}
	delta, err := s.deltaRange(ctx, q, eps, &stats)
	if err != nil {
		return nil, stats, err
	}
	merged := mergeMatches(matches, s.view(), delta)
	s.fixupStats(&stats, len(merged))
	return merged, stats, nil
}

// SearchBatchCtx answers several range queries in one pass over the
// snapshot, one result set and stats value per query, in input order.
func (s *Snap) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	matches, stats, err := s.db.base.SearchBatchCtx(ctx, qs, eps)
	if err != nil {
		return nil, stats, err
	}
	if s.st.deltaLen() == 0 {
		return matches, stats, nil
	}
	for i := range qs {
		delta, err := s.deltaRange(ctx, qs[i], eps, &stats[i])
		if err != nil {
			return nil, stats, err
		}
		matches[i] = mergeMatches(matches[i], s.view(), delta)
		s.fixupStats(&stats[i], len(matches[i]))
	}
	return matches, stats, nil
}

// SearchKNNBoundedCtx returns the snapshot's part of a kNN answer under
// the exact distance D and a shared live bound: the MetricD case of
// SearchKNNMetricBoundedCtx.
func (s *Snap) SearchKNNBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound) ([]core.KNNResult, error) {
	return s.SearchKNNMetricBoundedCtx(ctx, q, k, bound, core.MetricD{})
}

// SequentialSearch is the exact linear-scan baseline over the
// snapshot's corpus.
func (s *Snap) SequentialSearch(q *core.Sequence, eps float64) ([]core.ScanResult, error) {
	base, err := s.db.base.SequentialSearch(q, eps)
	if err != nil {
		return nil, err
	}
	if s.st.deltaLen() == 0 {
		return base, nil
	}
	v := s.view()
	var delta []core.ScanResult
	for _, d := range v.delta {
		sq := d.g.Seq
		profile := core.OffsetProfile(q.Points, sq.Points)
		dist := core.MinOfProfile(profile)
		if dist > eps {
			continue
		}
		queryLonger := len(q.Points) > len(sq.Points)
		k := len(q.Points)
		if queryLonger {
			k = len(sq.Points)
		}
		si := core.SolutionIntervalFromProfile(profile, k, len(sq.Points), queryLonger, eps)
		delta = append(delta, core.ScanResult{SeqID: d.id, Seq: sq, Dist: dist, Interval: si})
	}
	out := make([]core.ScanResult, 0, len(base)+len(delta))
	i, j := 0, 0
	for i < len(base) || j < len(delta) {
		if i < len(base) && v.dropBase(base[i].SeqID) {
			i++
			continue
		}
		switch {
		case i >= len(base):
			out = append(out, delta[j])
			j++
		case j >= len(delta) || base[i].SeqID < delta[j].SeqID:
			out = append(out, base[i])
			i++
		default:
			out = append(out, delta[j])
			j++
		}
	}
	return out, nil
}

// Segmented returns the snapshot's visible version of a sequence, or
// nil.
func (s *Snap) Segmented(id uint32) *core.Segmented {
	v := s.view()
	if s.st.deltaLen() == 0 {
		if id >= s.st.baseNext {
			return nil
		}
		return s.db.base.Segmented(id)
	}
	return v.effective(id, s.db.base)
}

// Len reports the number of sequences visible in the snapshot.
func (s *Snap) Len() int { return s.st.live }

// Sequences lists the snapshot's visible sequences in id order.
func (s *Snap) Sequences() []*core.Sequence {
	base := s.db.base.Sequences()
	if s.st.deltaLen() == 0 {
		return base
	}
	v := s.view()
	out := make([]*core.Sequence, 0, s.st.live)
	j := 0
	for _, sq := range base {
		if v.dropBase(sq.ID) {
			continue
		}
		for j < len(v.delta) && v.delta[j].id < sq.ID {
			out = append(out, v.delta[j].g.Seq)
			j++
		}
		out = append(out, sq)
	}
	for ; j < len(v.delta); j++ {
		out = append(out, v.delta[j].g.Seq)
	}
	return out
}

// --- DB-level read methods (ephemeral snapshot per call) ----------------
//
// These complete the shard.DB surface: each pins a snapshot, answers,
// and releases, so the serving layers get MVCC semantics without
// managing snapshot lifetimes. Handlers that want one consistent view
// across several calls use Acquire/Release directly.

// Search runs a range search on a fresh snapshot.
func (db *DB) Search(q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	return db.SearchCtx(context.Background(), q, eps)
}

// SearchCtx runs a range search on a fresh snapshot, honoring ctx.
func (db *DB) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchCtx(ctx, q, eps)
}

// SearchParallel is the parallel range search on a fresh snapshot.
func (db *DB) SearchParallel(q *core.Sequence, eps float64, workers int) ([]core.Match, core.SearchStats, error) {
	return db.SearchParallelCtx(context.Background(), q, eps, workers)
}

// SearchParallelCtx is the parallel range search on a fresh snapshot,
// honoring ctx.
func (db *DB) SearchParallelCtx(ctx context.Context, q *core.Sequence, eps float64, workers int) ([]core.Match, core.SearchStats, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchParallelCtx(ctx, q, eps, workers)
}

// SearchBatch answers several range queries against one snapshot.
func (db *DB) SearchBatch(qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	return db.SearchBatchCtx(context.Background(), qs, eps)
}

// SearchBatchCtx answers several range queries against one snapshot,
// honoring ctx.
func (db *DB) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchBatchCtx(ctx, qs, eps)
}

// SearchKNN returns the k nearest sequences on a fresh snapshot.
func (db *DB) SearchKNN(q *core.Sequence, k int) ([]core.KNNResult, error) {
	return db.SearchKNNCtx(context.Background(), q, k)
}

// SearchKNNCtx returns the k nearest sequences on a fresh snapshot,
// honoring ctx.
func (db *DB) SearchKNNCtx(ctx context.Context, q *core.Sequence, k int) ([]core.KNNResult, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchKNNBoundedCtx(ctx, q, k, nil)
}

// SearchKNNBoundedCtx is the k-nearest query under a shared live bound
// on a fresh snapshot.
func (db *DB) SearchKNNBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound) ([]core.KNNResult, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchKNNBoundedCtx(ctx, q, k, bound)
}

// SequentialSearch is the exact linear-scan baseline on a fresh
// snapshot.
func (db *DB) SequentialSearch(q *core.Sequence, eps float64) ([]core.ScanResult, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SequentialSearch(q, eps)
}

// Explain records every pruning decision a search makes. The index only
// covers the base, so Explain first folds the delta (a checkpoint) and
// then explains against the fully indexed corpus.
func (db *DB) Explain(q *core.Sequence, eps float64) (*core.Explanation, error) {
	if db.cur.Load().deltaLen() > 0 {
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return db.base.Explain(q, eps)
}

// Segmented returns the currently visible version of a sequence, or
// nil.
func (db *DB) Segmented(id uint32) *core.Segmented {
	s := db.Acquire()
	defer s.Release()
	return s.Segmented(id)
}

// Sequences lists every visible sequence in id order.
func (db *DB) Sequences() []*core.Sequence {
	s := db.Acquire()
	defer s.Release()
	return s.Sequences()
}

// Len reports the number of visible sequences.
func (db *DB) Len() int { return db.cur.Load().live }

// NumMBRs reports the indexed-plus-delta MBR count of the visible
// corpus: base MBRs, minus entries belonging to removed or superseded
// base sequences, plus the delta versions'.
func (db *DB) NumMBRs() int {
	s := db.Acquire()
	defer s.Release()
	n := db.base.NumMBRs()
	if s.st.deltaLen() == 0 {
		return n
	}
	v := s.view()
	for _, d := range v.delta {
		n += len(d.g.MBRs)
		if d.id < s.st.baseNext {
			if bg := db.base.Segmented(d.id); bg != nil {
				n -= len(bg.MBRs)
			}
		}
	}
	for id := range v.removed {
		if id < s.st.baseNext {
			if bg := db.base.Segmented(id); bg != nil {
				n -= len(bg.MBRs)
			}
		}
	}
	return n
}

// IndexHeight reports the base R*-tree height.
func (db *DB) IndexHeight() int { return db.base.IndexHeight() }

// IndexFanout reports the base R*-tree node capacity.
func (db *DB) IndexFanout() int { return db.base.IndexFanout() }

// Shards reports 1: the transaction layer wraps a single database (a
// sharded deployment wraps one DB per shard).
func (db *DB) Shards() int { return 1 }

// Dim reports the point dimensionality.
func (db *DB) Dim() int { return db.base.Dim() }

// PartitionConfig reports the MCOST segmentation settings in force.
func (db *DB) PartitionConfig() core.PartitionConfig { return db.base.PartitionConfig() }

// CandidatesDmbr runs only phases 1+2 against the current snapshot. The
// delta is not indexed, so its phase 2 is the linear Dmbr prune the
// query path applies (dmbrQualifies) — the returned set is exactly the
// paper's ASmbr over the snapshot's content.
func (db *DB) CandidatesDmbr(q *core.Sequence, eps float64) (map[uint32]bool, error) {
	s := db.Acquire()
	defer s.Release()
	cand, err := db.base.CandidatesDmbr(q, eps)
	if err != nil {
		return nil, err
	}
	if s.st.deltaLen() == 0 {
		return cand, nil
	}
	v := s.view()
	for id := range cand {
		if v.dropBase(id) {
			delete(cand, id)
		}
	}
	qseg, err := s.qseg(q)
	if err != nil {
		return nil, err
	}
	epsSq := eps * eps
	for _, d := range v.delta {
		if dmbrQualifies(qseg, d.g, epsSq) {
			cand[d.id] = true
		}
	}
	return cand, nil
}

// Epoch returns the commit version of the latest published state; it
// changes on every commit, so corpus-version observers above this layer
// see every write.
func (db *DB) Epoch() uint64 { return db.cur.Load().epoch }

// SetCache attaches a query cache to the base database (nil detaches).
// The base only changes at checkpoint folds — commits stream into the
// delta, whose matches are computed fresh on every search — which is the
// point of this layering: base entries stay valid, and keep being
// served, while commits accumulate. A fold replays the delta through the
// base's ordinary write operations, so the cache hears about each folded
// sequence's MBR and (under the default MBR scope) invalidates only the
// entries those regions can affect.
func (db *DB) SetCache(c *cache.Cache) { db.base.SetCache(c) }

// QueryCache returns the attached cache, or nil.
func (db *DB) QueryCache() *cache.Cache { return db.base.QueryCache() }
