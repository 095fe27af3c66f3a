package txn

import (
	"cmp"
	"context"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
)

// Snap is a pinned MVCC read snapshot: an immutable view of the corpus
// as of one commit, base included. All its query methods answer from
// exactly that version no matter how many commits and folds land
// meanwhile, and none of them takes a lock a writer ever holds — readers
// never block on writers, and a fold never waits for readers: a snapshot
// keeps the base it pinned alive. Release it when done. A Snap is safe
// for concurrent use.
type Snap struct {
	db       *DB
	st       *state
	released atomic.Bool
}

// Acquire pins a read snapshot at the current commit: one atomic load,
// no lock shared with the commit path.
func (db *DB) Acquire() *Snap {
	n := db.stats.snapshots.Add(1)
	if m := db.met.Load(); m != nil {
		m.pinned.Set(float64(n))
	}
	return &Snap{db: db, st: db.cur.Load()}
}

// Release unpins the snapshot. Idempotent.
func (s *Snap) Release() {
	if s.released.CompareAndSwap(false, true) {
		n := s.db.stats.snapshots.Add(-1)
		if m := s.db.met.Load(); m != nil {
			m.pinned.Set(float64(n))
		}
	}
}

// Epoch returns the commit version the snapshot is pinned to.
func (s *Snap) Epoch() uint64 { return s.st.epoch }

// view returns the pinned state's delta in lookup form, shared with every
// other snapshot of that state.
func (s *Snap) view() *view { return s.st.view() }

// mergeByID merges two id-ascending match lists — the base's answer and
// the delta pass's — dropping base entries the view supersedes: the one
// merge of every kind whose answer is ordered by id. The base answer is
// walked beside the view's ascending drop list, so a base entry costs a
// comparison, not a map probe. When the delta adds nothing and drops
// nothing, a non-empty answer is base itself, which may be the base cache's
// list: like every range answer it is read-only downstream. An empty answer
// stays a non-nil list.
func mergeByID(base []core.Match, v *view, delta []core.Match) []core.Match {
	if len(delta) == 0 && len(base) > 0 && !dropsAny(base, v.drop) {
		return base
	}
	out := make([]core.Match, 0, len(base)+len(delta))
	i, j, d := 0, 0, 0
	for i < len(base) || j < len(delta) {
		if i < len(base) {
			id := base[i].SeqID
			for d < len(v.drop) && v.drop[d] < id {
				d++
			}
			if d < len(v.drop) && v.drop[d] == id {
				i++
				continue
			}
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

// dropsAny reports whether the id-ascending answer holds an id of the
// ascending drop list.
func dropsAny(ms []core.Match, drop []uint32) bool {
	d := 0
	for i := range ms {
		id := ms[i].SeqID
		for d < len(drop) && drop[d] < id {
			d++
		}
		if d == len(drop) {
			return false
		}
		if drop[d] == id {
			return true
		}
	}
	return false
}

// Do answers q against the snapshot: the one query path of the transaction
// layer. The indexed base answers first (core.Database.Do — cache, index,
// kernels), the delta pass answers q over the snapshot's unfolded sequences
// with the same kernels (core.Unindexed), and the two are merged with base
// entries the delta supersedes or removed dropped — identical output to a
// fully indexed database holding this snapshot's content, for every kind and
// metric. With nothing unfolded the base's answer is the snapshot's.
//
// The query is prepared once (core.Prepare), here unless a layer above did
// it: the base and the delta pass read the same segmentation or envelopes,
// and the prepared form is released when Do returns. With nothing unfolded
// the base prepares it.
func (s *Snap) Do(ctx context.Context, q core.Query) (core.Result, error) {
	if s.st.deltaLen() == 0 {
		return s.st.base.Do(ctx, q)
	}
	if q.Kind == core.KNN && q.K <= 0 {
		return core.Result{}, nil
	}
	q, own, err := core.Prepare(q, s.db.opts.Dim, s.db.opts.Partition)
	if err != nil {
		return core.Result{}, err
	}
	defer own.Release()
	base := q
	if q.Kind == core.KNN {
		// The base answers an inflated k', covering every result the delta
		// might supersede or have removed. An add takes a fresh id the base
		// never holds, so it drops nothing from the base's answer and is not
		// counted: the merge ranks it against the base's survivors. Nothing
		// is sized by k, and k' is built from the smaller of k and the live
		// count: asking for more neighbors than there are sequences returns
		// them all, ranked.
		base.K = min(q.K, s.st.live) + len(s.view().overlay) + len(s.st.removed)
		base.Bound = q.Bound.Local()
	}
	res, err := s.st.base.Do(ctx, base)
	if err != nil {
		return core.Result{}, err
	}
	return s.overlay(ctx, q, res)
}

// overlay turns the base's answer to q into the snapshot's: the delta pass,
// the merge, the statistics rewritten to the snapshot's view.
func (s *Snap) overlay(ctx context.Context, q core.Query, res core.Result) (core.Result, error) {
	v := s.view()
	var err error
	if q.Kind == core.KNN {
		res.Matches, err = s.mergeKNN(ctx, q, res.Matches, &res.Stats)
	} else {
		var delta []core.Match
		if len(v.segs) > 0 {
			t0 := time.Now()
			delta, err = core.Unindexed(ctx, q, s.db.opts.Partition, v.ids, v.segs, &res.Stats)
			if tr := obs.FromContext(ctx); tr != nil && q.Kind == core.Range {
				tr.RecordSpan(obs.SpanFromContext(ctx), "delta-scan", time.Since(t0),
					obs.Int64("snapshot_epoch", int64(s.st.epoch)),
					obs.Int("delta_len", s.st.deltaLen()),
					obs.Int("matches", len(delta)))
			}
		}
		res.Matches = mergeByID(res.Matches, v, delta)
	}
	if err != nil {
		return core.Result{}, err
	}
	// The base's corpus-level counters become the snapshot's; the delta
	// pass has already added its work.
	res.Stats.TotalSequences = s.st.live
	res.Stats.MatchesDnorm = len(res.Matches)
	res.Stats.CacheHit = false
	return res, nil
}

// SearchBatchCtx answers several of the paper's range queries against the
// snapshot: core.DoBatch with the snapshot's Do, so every answer comes from
// this one pinned version.
func (s *Snap) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	return core.DoBatch(ctx, s.Do, s.db.Dim(), s.db.PartitionConfig(), qs, eps)
}

// Explain records every pruning decision the paper's range search makes
// against the snapshot, the way Do answers: the base's record, minus the
// sequences the snapshot supersedes or removed, merged by id with the same
// record over the snapshot's unfolded sequences (core.ExplainUnindexed). A
// sequence is "matched" exactly when Do returns it.
func (s *Snap) Explain(q *core.Sequence, eps float64) (*core.Explanation, error) {
	ex, err := s.st.base.Explain(q, eps)
	if err != nil || s.st.deltaLen() == 0 {
		return ex, err
	}
	v := s.view()
	delta := core.ExplainUnindexed(q, eps, s.db.PartitionConfig(), v.ids, v.segs)
	ex.Candidates = append(slices.DeleteFunc(ex.Candidates, func(c core.CandidateExplanation) bool { return v.dropBase(c.SeqID) }),
		delta.Candidates...)
	slices.SortFunc(ex.Candidates, func(a, b core.CandidateExplanation) int { return cmp.Compare(a.SeqID, b.SeqID) })
	return ex, nil
}

// mergeKNN is the delta pass and merge of a KNN — the one kNN merge every
// metric shares: base, the base index's answer for the inflated k', loses
// what the view supersedes, the delta pass (core.Unindexed) contributes its
// own top k, and the merge keeps the true top k.
//
// The base search read the live bound but published to a Local one (Do):
// what it refines may be a version the delta supersedes or a sequence it
// removed, and such a distance must never count among the k that make the
// shared bound. The merge owns the answer, so it offers every surviving
// base result and every delta result — live in this snapshot, one id each —
// and publishes its own k-th best as it improves. The delta pass refines
// against a Local bound that holds the surviving base results' k-th best
// besides reading the shared one: a delta sequence above it cannot enter the
// top k.
func (s *Snap) mergeKNN(ctx context.Context, q core.Query, base []core.Match, st *core.SearchStats) ([]core.Match, error) {
	v := s.view()
	own := q.Bound.Local()
	var out []core.Match
	accept := func(r core.Match) {
		out = core.InsertKNN(out, r, q.K)
		q.Bound.Offer(r.SeqID, r.Dist)
		if len(out) == q.K {
			q.Bound.Tighten(out[q.K-1].Dist)
			own.Tighten(out[q.K-1].Dist)
		}
	}
	for _, r := range base {
		if !v.dropBase(r.SeqID) {
			accept(r)
		}
	}
	if len(v.segs) == 0 {
		return out, nil
	}
	dq := q
	dq.Bound = own
	delta, err := core.Unindexed(ctx, dq, s.db.opts.Partition, v.ids, v.segs, st)
	if err != nil {
		return nil, err
	}
	for _, r := range delta {
		accept(r)
	}
	return out, nil
}

// Segmented returns the snapshot's visible version of a sequence, or
// nil.
func (s *Snap) Segmented(id uint32) *core.Segmented {
	return s.view().effective(id)
}

// Len reports the number of sequences visible in the snapshot.
func (s *Snap) Len() int { return s.st.live }

// Sequences lists the snapshot's visible sequences in id order.
func (s *Snap) Sequences() []*core.Sequence {
	base := s.st.base.Sequences()
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
		for j < len(v.ids) && v.ids[j] < sq.ID {
			out = append(out, v.segs[j].Seq)
			j++
		}
		out = append(out, sq)
	}
	for ; j < len(v.segs); j++ {
		out = append(out, v.segs[j].Seq)
	}
	return out
}

// --- DB-level read methods (ephemeral snapshot per call) ----------------
//
// These complete the shard.DB surface: each pins a snapshot, answers,
// and releases, so the serving layers get MVCC semantics without
// managing snapshot lifetimes. Handlers that want one consistent view
// across several calls use Acquire/Release directly.

// Do answers q on a fresh snapshot (see Snap.Do).
func (db *DB) Do(ctx context.Context, q core.Query) (core.Result, error) {
	s := db.Acquire()
	defer s.Release()
	return s.Do(ctx, q)
}

// SearchBatchCtx answers several range queries against one fresh snapshot.
func (db *DB) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchBatchCtx(ctx, qs, eps)
}

// The four methods below are Do under the names the shard.DB interface
// keeps for bench/ — the harness is frozen until a benchmark-only PR
// re-points `bench/` — each a one-line adapter. New code calls Do.

// SearchCtx is Do for the paper's range search.
func (db *DB) SearchCtx(ctx context.Context, q *core.Sequence, eps float64) ([]core.Match, core.SearchStats, error) {
	res, err := db.Do(ctx, core.Query{Seq: q, Eps: eps})
	return res.Matches, res.Stats, err
}

// SearchMetricCtx is Do for a range search under m (nil means MetricD).
func (db *DB) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	if m == nil {
		m = core.MetricD{}
	}
	res, err := db.Do(ctx, core.Query{Seq: q, Eps: eps, Metric: m})
	return res.Matches, res.Stats, err
}

// SearchKNNCtx is Do for a kNN under D.
func (db *DB) SearchKNNCtx(ctx context.Context, q *core.Sequence, k int) ([]core.KNNResult, error) {
	return db.SearchKNNMetricCtx(ctx, q, k, nil)
}

// SearchKNNMetricCtx is Do for a kNN under m (nil means MetricD).
func (db *DB) SearchKNNMetricCtx(ctx context.Context, q *core.Sequence, k int, m core.Metric) ([]core.KNNResult, error) {
	res, err := db.Do(ctx, core.Query{Seq: q, Kind: core.KNN, K: k, Metric: m})
	return res.Matches, err
}

// Explain records every pruning decision the paper's range search makes,
// on a fresh snapshot (see Snap.Explain).
func (db *DB) Explain(q *core.Sequence, eps float64) (*core.Explanation, error) {
	s := db.Acquire()
	defer s.Release()
	return s.Explain(q, eps)
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
	base := s.st.base
	n := base.NumMBRs()
	if s.st.deltaLen() == 0 {
		return n
	}
	v := s.view()
	for i, g := range v.segs {
		n += len(g.MBRs)
		if id := v.ids[i]; id < s.st.baseNext {
			if bg := base.Segmented(id); bg != nil {
				n -= len(bg.MBRs)
			}
		}
	}
	for id := range v.removed {
		if id < s.st.baseNext {
			if bg := base.Segmented(id); bg != nil {
				n -= len(bg.MBRs)
			}
		}
	}
	return n
}

// IndexHeight reports the base R*-tree height.
func (db *DB) IndexHeight() int { return db.cur.Load().base.IndexHeight() }

// IndexFanout reports the base R*-tree node capacity.
func (db *DB) IndexFanout() int { return db.cur.Load().base.IndexFanout() }

// Shards reports 1: the transaction layer wraps a single database (a
// sharded deployment wraps one DB per shard).
func (db *DB) Shards() int { return 1 }

// Dim reports the point dimensionality.
func (db *DB) Dim() int { return db.opts.Dim }

// PartitionConfig reports the MCOST segmentation settings in force.
func (db *DB) PartitionConfig() core.PartitionConfig { return db.opts.Partition }

// Epoch returns the commit version of the latest published state; it
// changes on every commit, so corpus-version observers above this layer
// see every write.
func (db *DB) Epoch() uint64 { return db.cur.Load().epoch }

// SetCache attaches a query cache to the base database (nil detaches).
// The base only changes at checkpoint folds — commits stream into the
// delta, whose matches are computed fresh on every search — which is the
// point of this layering: base entries stay valid, and keep being
// served, while commits accumulate. A fold moves the cache to the base it
// built (moveCache), invalidating only the entries the folded sequences'
// regions can affect.
func (db *DB) SetCache(c *cache.Cache) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.qc.Store(c)
	db.cur.Load().base.SetCache(c)
}

// QueryCache returns the attached cache, or nil.
func (db *DB) QueryCache() *cache.Cache { return db.qc.Load() }
