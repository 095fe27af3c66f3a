package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Kind says what a Query asks for.
type Kind uint8

// The query kinds. The zero value is the paper's range search.
const (
	// Range asks for every stored sequence within Eps of the query.
	Range Kind = iota
	// KNN asks for the K stored sequences nearest the query.
	KNN
	// Scan asks what Range asks, answered by the exhaustive scan: every
	// stored sequence's exact distance, no index, no lower bound, no early
	// abandoning. It is the oracle the indexed answers are held to, and on
	// every layer it runs outside that layer's serving machinery (cache,
	// metrics).
	Scan
)

// Query is one similarity query as a value: every layer — a Database, a
// scatter over shards, a transaction snapshot, the HTTP server — answers
// it through a single Do(ctx, Query), so a new kind or metric is a kernel
// here and not a method on each of them.
type Query struct {
	// Seq is the query sequence.
	Seq *Sequence
	// Kind selects range search (the zero value), kNN or the scan.
	Kind Kind
	// Eps is the threshold of a Range or Scan query; a KNN ignores it.
	Eps float64
	// K is how many neighbors a KNN query returns; K ≤ 0 is the empty
	// answer. Range and Scan ignore it.
	K int
	// Metric is the distance the answer is defined by. For Range and Scan
	// nil is the paper's answer — SIMILARITY_SEARCH's Dnorm-filtered set
	// with MinDnorm and approximated solution intervals for Range, exact D
	// with exact solution intervals for Scan — and a Metric, MetricD
	// included, is that metric's ε-ball with exact distances and no
	// intervals. A KNN ranks by exact distance always; nil means MetricD.
	Metric Metric
	// Bound, for a KNN, is the live k-th-best distance this search shares
	// with others working on the same query (see KNNBound): the search
	// stops once every lower bound left exceeds min(Bound, own k-th best)
	// and offers the bound every distance it accepts. The answer is then
	// this database's part: every stored sequence among its K nearest at or
	// below the bound's final value, exact distances; sequences above the
	// bound may be missing even when fewer than K come back. nil is
	// unbounded.
	Bound *KNNBound

	// prep is the query's prepared form (Prepare), nil until the first
	// layer whose Do sees the query prepares it.
	prep *Prepared
}

// Result is the answer to a Query.
type Result struct {
	// Matches are the sequences of the answer: ascending SeqID for Range and
	// Scan, ascending (Dist, SeqID) for KNN. The slice may be shared with a
	// query cache and must not be written to. The matches of one answer share
	// backing arrays — this list and, under a Range answer's intervals, one
	// slab (see Match.Interval) — so they are retained together; none of it
	// aliases memory a later search reuses.
	Matches []Match
	// Stats describes the work behind the answer. A KNN fills only
	// TotalSequences, CPUTime and CacheHit.
	Stats SearchStats
	// PerShard holds, for an answer gathered from shards, each shard's own
	// statistics in shard order. nil from a single database.
	PerShard []ShardStats
}

// ShardStats pairs a shard index with the statistics its local search
// produced, so callers can spot skewed shards.
type ShardStats struct {
	Shard int         // shard index within the sharded database
	Stats SearchStats // that shard's local search statistics
}

// Check reports what makes q unanswerable by a database of dimension dim,
// whatever it stores: no sequence, an empty or non-finite one (ErrNonFinite),
// one of another dimension (geom.ErrDimensionMismatch), a negative
// threshold. It is the one validation every entry point that takes a query
// runs first — Do, SearchBatchCtx, Explain, CandidatesDmbr, and the layers
// above before they do work of their own.
func (q Query) Check(dim int) error {
	if q.Seq == nil {
		return errors.New("core: query has no sequence")
	}
	if err := q.Seq.Validate(); err != nil {
		return err
	}
	if q.Seq.Dim() != dim {
		return fmt.Errorf("core: query dim %d, database dim %d: %w", q.Seq.Dim(), dim, geom.ErrDimensionMismatch)
	}
	return q.checkEps()
}

// errClosed is what a query on a closed database returns.
var errClosed = errors.New("core: database closed")

// Do answers q: the one search entry point of a Database, where a query is
// prepared (Prepare: checked, unless a layer above prepared it), looked up in
// the result cache, given the read lock and a pooled scratch, recorded into
// the metrics registry and stored in the cache. Between those it runs the
// kernel q selects:
//
//   - Range, nil Metric: the paper's SIMILARITY_SEARCH (rangePhases) —
//     partition the query, prune with Dmbr through the R*-tree, prune with
//     Dnorm and assemble solution intervals.
//   - Range under a Metric: the same filter refined to exact distances for
//     MetricD (dRange), the envelope ladder for MetricDTW (dtwRange).
//   - KNN: the index walk under D (knnD), the bound-ordered ladder under
//     DTW (knnDTW).
//   - Scan: the exhaustive baseline (scan), neither cached nor recorded.
//
// ctx is honored between phases and every cancelCheckEvery candidates
// inside them: a fired context abandons the query with its error wrapped
// (errors.Is(err, context.DeadlineExceeded) holds), and an abandoned query
// records nothing. The whole query runs out of one pooled scratch, so on a
// warmed pool the only allocations are the ones the answer itself owns —
// a no-match query allocates nothing (TestHotpathAllocs), a Range answer a
// constant number however many sequences match (TestRangeAnswerAllocs).
//
// The cache is probed whatever q.Bound says (a cached unbounded answer is
// a valid bounded one, and tightens the bound), but a KNN answer is stored
// only when it is the unbounded one (knnCutoff.unbounded). The slot's
// write-sequence snapshot is taken before the read lock: a write landing
// after it makes the entry stored below unservable, never stale. A hit is
// served, and an answer stored, only while the database still holds the
// slot's cache: the transaction layer's fold moves a cache from the base
// it replaces to the new one (detach, invalidate the folded regions,
// attach), and a query on the old base that straddles the move must
// neither serve an entry of the new base nor leave one behind for it.
func (db *Database) Do(ctx context.Context, q Query) (Result, error) {
	t0 := time.Now()
	q, own, err := Prepare(q, db.opts.Dim, db.opts.Partition)
	if err != nil {
		return Result{}, err
	}
	defer own.Release()
	if q.Kind == KNN && q.K <= 0 {
		return Result{}, nil
	}
	slot := SlotFor(db.qcache.Load(), q, db.opts.Partition)
	tr := obs.FromContext(ctx)
	if res, ok := slot.Get(); ok && db.holds(slot) {
		if tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "cache-hit", 0, obs.Str("tier", "result"))
		}
		if q.Kind == KNN && len(res.Matches) == q.K {
			q.Bound.Tighten(res.Matches[q.K-1].Dist)
		}
		return res, nil
	}

	// A kNN search may wait at its bound's rendezvous holding this lock, and
	// a reader blocked behind a pending writer must not be waited for: the
	// writer waits for that search, which would wait for the reader. So the
	// query leaves the rendezvous before it blocks.
	if !db.mu.TryRLock() {
		q.Bound.Leave()
		db.mu.RLock()
	}
	defer db.mu.RUnlock()
	if db.pg == nil {
		return Result{}, errClosed
	}
	if err := searchCanceled(ctx); err != nil {
		return Result{}, err
	}
	var res Result
	st := &res.Stats
	st.TotalSequences = db.live
	sc := getScratch()
	defer putScratch(sc)

	mt, dtw := q.Metric.(MetricDTW)
	cacheable := true
	switch {
	case q.Kind == Scan:
		res.Matches = sc.scan(q, db.seqs, nil)
		return res, nil
	case q.Kind == KNN && dtw:
		res.Matches, cacheable, err = db.knnDTW(ctx, q, mt, sc, st, tr, t0)
	case q.Kind == KNN:
		res.Matches, cacheable, err = db.knnD(ctx, q, sc, st, tr, t0)
	case dtw:
		res.Matches, err = db.dtwRange(ctx, q, mt, sc, st, tr)
	case q.Metric != nil:
		res.Matches, err = db.dRange(ctx, q, sc, st, tr)
	default:
		res.Matches, err = db.rangePhases(ctx, q, sc, st, tr)
	}
	if err != nil {
		return Result{}, err
	}
	if q.Kind == Range {
		st.CPUTime = st.Total()
		db.met.RecordSearch(*st)
		if dtw {
			db.met.RecordDTW(false, st.CandidatesDmbr, st.DTWEnvPruned, st.DTWKeoghPruned, st.DTWEvals)
		}
	}
	if cacheable && db.holds(slot) {
		slot.Put(res)
	}
	return res, nil
}

// holds reports whether the database still holds slot's cache. Checked
// after a Get, it proves the entry was stored while the cache served this
// database alone: a cache detached from a base is never attached to it
// again. Checked before a Put, a move that starts after the check
// invalidates every region the fold changed after the slot's
// write-sequence snapshot, so Put drops any entry the fold outdated.
func (db *Database) holds(slot CacheSlot) bool { return db.qcache.Load() == slot.c }

// The methods below are Do under the names bench/ compiles against — the
// harness is frozen until a benchmark-only PR re-points `bench/` — each a
// one-line adapter; DESIGN's "Query path" section lists, per name, the
// bench/ line that pins it. New code calls Do.

// Search is Do for the paper's range search, without a context.
func (db *Database) Search(q *Sequence, eps float64) ([]Match, SearchStats, error) {
	return db.SearchCtx(context.Background(), q, eps)
}

// SearchCtx is Do for the paper's range search.
func (db *Database) SearchCtx(ctx context.Context, q *Sequence, eps float64) ([]Match, SearchStats, error) {
	res, err := db.Do(ctx, Query{Seq: q, Eps: eps})
	return res.Matches, res.Stats, err
}

// SearchMetric is Do for a range search under m, without a context.
func (db *Database) SearchMetric(q *Sequence, eps float64, m Metric) ([]MetricMatch, SearchStats, error) {
	return db.SearchMetricCtx(context.Background(), q, eps, m)
}

// SearchMetricCtx is Do for a range search under m (nil means MetricD).
func (db *Database) SearchMetricCtx(ctx context.Context, q *Sequence, eps float64, m Metric) ([]MetricMatch, SearchStats, error) {
	res, err := db.Do(ctx, Query{Seq: q, Eps: eps, Metric: orD(m)})
	return res.Matches, res.Stats, err
}

// SearchKNN is Do for a kNN under D, without a context.
func (db *Database) SearchKNN(q *Sequence, k int) ([]KNNResult, error) {
	return db.SearchKNNMetricCtx(context.Background(), q, k, nil)
}

// SearchKNNCtx is Do for a kNN under D.
func (db *Database) SearchKNNCtx(ctx context.Context, q *Sequence, k int) ([]KNNResult, error) {
	return db.SearchKNNMetricCtx(ctx, q, k, nil)
}

// SearchKNNMetric is Do for a kNN under m, without a context.
func (db *Database) SearchKNNMetric(q *Sequence, k int, m Metric) ([]KNNResult, error) {
	return db.SearchKNNMetricCtx(context.Background(), q, k, m)
}

// SearchKNNMetricCtx is Do for a kNN under m (nil means MetricD).
func (db *Database) SearchKNNMetricCtx(ctx context.Context, q *Sequence, k int, m Metric) ([]KNNResult, error) {
	res, err := db.Do(ctx, Query{Seq: q, Kind: KNN, K: k, Metric: m})
	return res.Matches, err
}

// SequentialSearch is Do for the exact scan under D: each sequence with
// D ≤ eps, its distance and its exact solution interval (Definition 6).
func (db *Database) SequentialSearch(q *Sequence, eps float64) ([]ScanResult, error) {
	res, err := db.Do(context.Background(), Query{Seq: q, Kind: Scan, Eps: eps})
	return res.Matches, err
}

// SequentialSearchMetric is Do for the exact scan under m (nil means
// MetricD): the ε-ball an indexed Range under m must equal byte for byte.
func (db *Database) SequentialSearchMetric(q *Sequence, eps float64, m Metric) ([]MetricMatch, error) {
	res, err := db.Do(context.Background(), Query{Seq: q, Kind: Scan, Eps: eps, Metric: orD(m)})
	return res.Matches, err
}

// orD resolves the "nil means MetricD" convention of the metric-taking
// adapters, where a Query's nil Metric means the paper's answer.
func orD(m Metric) Metric {
	if m == nil {
		return MetricD{}
	}
	return m
}
