package txn

import (
	"context"
	"math"
	"slices"
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

// mergeByID merges two id-ascending match lists — the base's answer and
// the delta pass's — dropping base entries the view supersedes: the one
// merge of every kind whose answer is ordered by id. When the delta adds
// nothing and drops nothing, a non-empty answer is base itself, which may
// be the base cache's list: like every range answer it is read-only
// downstream. An empty answer stays a non-nil list.
func mergeByID(base []core.Match, v *view, delta []core.Match) []core.Match {
	if len(delta) == 0 && len(base) > 0 && !slices.ContainsFunc(base, func(m core.Match) bool { return v.dropBase(m.SeqID) }) {
		return base
	}
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

// Do answers q against the snapshot: the one query path of the transaction
// layer. The indexed base answers first (core.Database.Do — cache, index,
// kernels), the delta pass evaluates the same predicate over the
// snapshot's unfolded sequences with the same evaluation kernels, and the
// two are merged with base entries the delta supersedes or removed dropped
// — identical output to a fully indexed database holding this snapshot's
// content, for every kind and metric. With nothing unfolded the base's
// answer is the snapshot's.
func (s *Snap) Do(ctx context.Context, q core.Query) (core.Result, error) {
	if s.st.deltaLen() == 0 {
		return s.db.base.Do(ctx, q)
	}
	base := q
	if q.Kind == core.KNN {
		if q.K <= 0 {
			return core.Result{}, nil
		}
		// The base answers an inflated k', covering every result the delta
		// might supersede or have removed. Nothing is sized by k, and k' is
		// built from the smaller of k and the live count: asking for more
		// neighbors than there are sequences returns them all, ranked.
		base.K = min(q.K, s.st.live) + len(s.st.adds) + len(s.view().overlay) + len(s.st.removed)
		base.Bound = q.Bound.Local()
	}
	res, err := s.db.base.Do(ctx, base)
	if err != nil {
		return core.Result{}, err
	}
	return s.overlay(ctx, q, res)
}

// overlay turns the base's answer to q into the snapshot's: the delta pass
// of q's kind, the merge, the statistics rewritten to the snapshot's view.
func (s *Snap) overlay(ctx context.Context, q core.Query, res core.Result) (core.Result, error) {
	var err error
	if q.Kind == core.KNN {
		res.Matches, err = s.mergeKNN(ctx, q, res.Matches)
	} else {
		var delta []core.Match
		switch {
		case q.Kind == core.Scan:
			delta = s.deltaScan(q)
		case q.Metric == nil:
			delta, err = s.deltaRange(ctx, q.Seq, q.Eps, &res.Stats)
		default:
			delta, err = s.deltaMetricRange(ctx, q.Seq, q.Eps, q.Metric, &res.Stats)
		}
		res.Matches = mergeByID(res.Matches, s.view(), delta)
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

// SearchBatchCtx answers several of the paper's range queries in one pass
// over the snapshot, one result set and stats value per query, in input
// order: the base's batched search, then Do's delta pass and merge per
// query.
func (s *Snap) SearchBatchCtx(ctx context.Context, qs []*core.Sequence, eps float64) ([][]core.Match, []core.SearchStats, error) {
	matches, stats, err := s.db.base.SearchBatchCtx(ctx, qs, eps)
	if err != nil || s.st.deltaLen() == 0 {
		return matches, stats, err
	}
	for i, q := range qs {
		res, err := s.overlay(ctx, core.Query{Seq: q, Eps: eps}, core.Result{Matches: matches[i], Stats: stats[i]})
		if err != nil {
			return nil, nil, err
		}
		matches[i], stats[i] = res.Matches, res.Stats
	}
	return matches, stats, nil
}

// deltaMetricRange evaluates the exact metric distance over the
// snapshot's delta sequences. No lower-bound pruning: the delta is
// bounded by the checkpoint cadence, so exhaustive exact evaluation
// keeps it trivially identical to the scan baseline.
func (s *Snap) deltaMetricRange(ctx context.Context, q *core.Sequence, eps float64, m core.Metric, st *core.SearchStats) ([]core.MetricMatch, error) {
	v := s.view()
	if len(v.delta) == 0 {
		return nil, nil
	}
	t0 := time.Now()
	qseg, err := s.qseg(q)
	if err != nil {
		return nil, err
	}
	_, isDTW := m.(core.MetricDTW)
	var out []core.MetricMatch
	for i, d := range v.delta {
		if i&31 == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		dist := core.EvalMetric(qseg, d.g, m, math.Inf(1))
		st.CandidatesDmbr++
		if isDTW {
			st.DTWEvals++
		}
		if dist <= eps {
			out = append(out, core.MetricMatch{SeqID: d.id, Seq: d.g.Seq, Dist: dist})
		}
	}
	dur := time.Since(t0)
	st.Phase3 += dur
	st.CPUTime += dur
	if tr := obs.FromContext(ctx); tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "delta-scan", dur,
			obs.Int64("snapshot_epoch", int64(s.st.epoch)),
			obs.Int("delta_len", s.st.deltaLen()),
			obs.Int("matches", len(out)))
	}
	return out, nil
}

// deltaScan is the exhaustive baseline over the snapshot's delta
// sequences, exactly as core's scan kernel treats a stored one: under a nil
// Metric the sliding-alignment D with its exact solution interval, under a
// Metric that metric's distance (core.ScanMetric).
func (s *Snap) deltaScan(q core.Query) []core.Match {
	var out []core.Match
	for _, d := range s.view().delta {
		sq := d.g.Seq
		if q.Metric != nil {
			if dist := core.ScanMetric(q.Seq, d.g, q.Metric); dist <= q.Eps {
				out = append(out, core.Match{SeqID: d.id, Seq: sq, Dist: dist})
			}
			continue
		}
		profile := core.OffsetProfile(q.Seq.Points, sq.Points)
		dist := core.MinOfProfile(profile)
		if dist > q.Eps {
			continue
		}
		queryLonger := len(q.Seq.Points) > len(sq.Points)
		k := len(q.Seq.Points)
		if queryLonger {
			k = len(sq.Points)
		}
		si := core.SolutionIntervalFromProfile(profile, k, len(sq.Points), queryLonger, q.Eps)
		out = append(out, core.Match{SeqID: d.id, Seq: sq, Dist: dist, Interval: si})
	}
	return out
}

// mergeKNN is the delta pass and merge of a KNN — the one kNN merge every
// metric shares: base, the base index's answer for the inflated k', loses what
// the view supersedes, the delta contributes exact distances via the same
// kernel the indexed path refines with, and the merge keeps the true top k.
//
// The base search read the live bound but published to a Local one (Do):
// what it refines may be a version the delta supersedes or a sequence it
// removed, and such a distance must never count among the k that make the
// shared bound. The merge owns the answer, so it offers every surviving
// base result and every accepted delta sequence — live in this snapshot,
// one id each — and publishes its own k-th best as it improves. Each delta
// sequence is scored with cutoff min(bound, current k-th best of the
// merge) — above it the score is not exact, and such a sequence cannot
// enter the top k.
func (s *Snap) mergeKNN(ctx context.Context, query core.Query, base []core.Match) ([]core.Match, error) {
	q, k, bound, m := query.Seq, query.K, query.Bound, query.Metric
	v := s.view()
	var out []core.KNNResult
	accept := func(r core.KNNResult) {
		out = core.InsertKNN(out, r, k)
		bound.Offer(r.SeqID, r.Dist)
		if len(out) == k {
			bound.Tighten(out[k-1].Dist)
		}
	}
	for _, r := range base {
		if !v.dropBase(r.SeqID) {
			accept(r)
		}
	}
	if len(v.delta) == 0 {
		return out, nil
	}
	qseg, err := s.qseg(q)
	if err != nil {
		return nil, err
	}
	_, dtw := m.(core.MetricDTW)
	for i, d := range v.delta {
		if i&31 == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		cut := bound.Load()
		if len(out) == k {
			cut = min(cut, out[k-1].Dist)
		}
		r := core.KNNResult{SeqID: d.id, Seq: d.g.Seq}
		if dtw {
			r.Dist = core.EvalMetric(qseg, d.g, m, cut)
		} else {
			r.Offset, r.Dist = core.EvalAlign(qseg, d.g, cut)
		}
		if r.Dist > cut || math.IsInf(r.Dist, 1) {
			continue
		}
		accept(r)
	}
	bound.AddCounts(core.KNNCounts{Candidates: len(v.delta), Refined: len(v.delta)})
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
// keeps for bench/ — the harness is frozen until ROADMAP item 5 re-points
// it — each a one-line adapter. New code calls Do.

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

// Explain records every pruning decision the paper's range search makes.
// The index only covers the base, so Explain first folds the delta (an
// automatic checkpoint: it persists only by the WAL-size rule) — once the
// query has passed core.Query.Check, so a query that will be refused
// costs no fold — and then explains against the fully indexed corpus.
func (db *DB) Explain(q *core.Sequence, eps float64) (*core.Explanation, error) {
	if err := (core.Query{Seq: q, Eps: eps}).Check(db.Dim()); err != nil {
		return nil, err
	}
	if db.cur.Load().deltaLen() > 0 {
		if err := db.checkpoint(false); err != nil {
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
// sequence's MBR and invalidates only the entries those regions can
// affect.
func (db *DB) SetCache(c *cache.Cache) { db.base.SetCache(c) }

// QueryCache returns the attached cache, or nil.
func (db *DB) QueryCache() *cache.Cache { return db.base.QueryCache() }
