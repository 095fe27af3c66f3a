package txn

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Metric queries over a snapshot: the indexed base answer merged with a
// linear exact-distance scan of the delta, using the same evaluation
// kernel (core.EvalMetric) as the indexed metric path — so the merged
// result is identical to a fully indexed database holding the
// snapshot's content, under D and DTW alike.

// SearchMetricCtx runs the exact-metric range search against the
// snapshot.
func (s *Snap) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	matches, stats, err := s.db.base.SearchMetricCtx(ctx, q, eps, m)
	if err != nil {
		return nil, stats, err
	}
	if s.st.deltaLen() == 0 {
		return matches, stats, nil
	}
	delta, err := s.deltaMetricRange(ctx, q, eps, m, &stats)
	if err != nil {
		return nil, stats, err
	}
	merged := mergeMetricMatches(matches, s.view(), delta)
	s.fixupStats(&stats, len(merged))
	return merged, stats, nil
}

// SearchMetric is SearchMetricCtx without a deadline.
func (s *Snap) SearchMetric(q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	return s.SearchMetricCtx(context.Background(), q, eps, m)
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

// mergeMetricMatches merges two id-ascending metric match lists,
// dropping base entries the view supersedes.
func mergeMetricMatches(base []core.MetricMatch, v *view, delta []core.MetricMatch) []core.MetricMatch {
	out := make([]core.MetricMatch, 0, len(base)+len(delta))
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

// SearchKNNMetricBoundedCtx returns the snapshot's part of a kNN answer
// under the metric and a shared live bound (see
// core.Database.SearchKNNBounded for the contract; nil is unbounded) —
// the one kNN merge every metric shares. The base index answers an
// inflated k' (covering every base result the delta might supersede),
// the delta contributes exact distances via the same kernel the indexed
// path refines with, and the merge keeps the true top k.
//
// The base search reads the live bound but publishes to a Local one: what
// it refines may be a version the delta supersedes or a sequence it
// removed, and such a distance must never count among the k that make the
// shared bound. The merge owns the answer, so it offers every surviving
// base result and every accepted delta sequence — live in this snapshot,
// one id each — and publishes its own k-th best as it improves. Each delta
// sequence is scored with cutoff min(bound, current k-th best of the
// merge) — above it the score is not exact, and such a sequence cannot
// enter the top k.
//
// k is whatever the request said. Nothing is sized by it, and k' is built
// from the smaller of k and the live count: asking for more neighbors than
// there are sequences returns them all, ranked.
func (s *Snap) SearchKNNMetricBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound, m core.Metric) ([]core.KNNResult, error) {
	if s.st.deltaLen() == 0 {
		return s.db.base.SearchKNNMetricBoundedCtx(ctx, q, k, bound, m)
	}
	if k <= 0 {
		return nil, nil
	}
	v := s.view()
	kPrime := min(k, s.st.live) + len(s.st.adds) + len(v.overlay) + len(s.st.removed)
	base, err := s.db.base.SearchKNNMetricBoundedCtx(ctx, q, kPrime, bound.Local(), m)
	if err != nil {
		return nil, err
	}
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

// SequentialSearchMetric is the exhaustive exact-metric baseline over
// the snapshot's corpus.
func (s *Snap) SequentialSearchMetric(q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, error) {
	base, err := s.db.base.SequentialSearchMetric(q, eps, m)
	if err != nil {
		return nil, err
	}
	if s.st.deltaLen() == 0 {
		return base, nil
	}
	v := s.view()
	var delta []core.MetricMatch
	for _, d := range v.delta {
		dist := core.ScanMetric(q, d.g, m)
		if dist <= eps {
			delta = append(delta, core.MetricMatch{SeqID: d.id, Seq: d.g.Seq, Dist: dist})
		}
	}
	return mergeMetricMatches(base, v, delta), nil
}

// SearchMetric runs the exact-metric range search on a fresh snapshot.
func (db *DB) SearchMetric(q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	return db.SearchMetricCtx(context.Background(), q, eps, m)
}

// SearchMetricCtx runs the exact-metric range search on a fresh
// snapshot, honoring ctx.
func (db *DB) SearchMetricCtx(ctx context.Context, q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, core.SearchStats, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchMetricCtx(ctx, q, eps, m)
}

// SearchKNNMetric returns the metric k nearest on a fresh snapshot.
func (db *DB) SearchKNNMetric(q *core.Sequence, k int, m core.Metric) ([]core.KNNResult, error) {
	return db.SearchKNNMetricCtx(context.Background(), q, k, m)
}

// SearchKNNMetricCtx returns the metric k nearest on a fresh snapshot,
// honoring ctx.
func (db *DB) SearchKNNMetricCtx(ctx context.Context, q *core.Sequence, k int, m core.Metric) ([]core.KNNResult, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchKNNMetricBoundedCtx(ctx, q, k, nil, m)
}

// SearchKNNMetricBoundedCtx is the metric k-nearest query under a shared
// live bound on a fresh snapshot.
func (db *DB) SearchKNNMetricBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound, m core.Metric) ([]core.KNNResult, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SearchKNNMetricBoundedCtx(ctx, q, k, bound, m)
}

// SequentialSearchMetric is the exhaustive exact-metric baseline on a
// fresh snapshot.
func (db *DB) SequentialSearchMetric(q *core.Sequence, eps float64, m core.Metric) ([]core.MetricMatch, error) {
	s := db.Acquire()
	defer s.Release()
	return s.SequentialSearchMetric(q, eps, m)
}
