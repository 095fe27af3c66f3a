package core

import "context"

// Snapshot is a read handle over the database pinned to the write epoch
// current when it was taken. It exposes the same query surface as the
// database; results additionally report, via Stale, whether a write
// landed since the handle was taken. Between two fold points of the
// transaction layer (internal/txn) the base database receives no writes
// at all, so a Snapshot taken there is a true immutable view: repeated
// queries through it see byte-identical state and its cached results
// remain valid for the handle's whole lifetime. Snapshots are values —
// cheap to take, nothing to release.
type Snapshot struct {
	db    *Database
	epoch uint64
}

// Snapshot captures a read handle at the current write epoch.
func (db *Database) Snapshot() Snapshot {
	return Snapshot{db: db, epoch: db.epoch.Load()}
}

// Epoch returns the write epoch the handle was taken at.
func (s Snapshot) Epoch() uint64 { return s.epoch }

// Stale reports whether any write has completed since the handle was
// taken — i.e. whether queries through it may now see different state
// than earlier queries did.
func (s Snapshot) Stale() bool { return s.db.epoch.Load() != s.epoch }

// Search runs the three-phase range search (see Database.Search).
func (s Snapshot) Search(q *Sequence, eps float64) ([]Match, SearchStats, error) {
	return s.db.Search(q, eps)
}

// SearchCtx is Search honoring a context (see Database.SearchCtx).
func (s Snapshot) SearchCtx(ctx context.Context, q *Sequence, eps float64) ([]Match, SearchStats, error) {
	return s.db.SearchCtx(ctx, q, eps)
}

// SearchParallelCtx is the parallel range search (see
// Database.SearchParallelCtx).
func (s Snapshot) SearchParallelCtx(ctx context.Context, q *Sequence, eps float64, workers int) ([]Match, SearchStats, error) {
	return s.db.SearchParallelCtx(ctx, q, eps, workers)
}

// SearchBatchCtx answers several range queries in one pass (see
// Database.SearchBatchCtx).
func (s Snapshot) SearchBatchCtx(ctx context.Context, qs []*Sequence, eps float64) ([][]Match, []SearchStats, error) {
	return s.db.SearchBatchCtx(ctx, qs, eps)
}

// SearchKNNBoundedCtx is the bounded k-nearest query (see
// Database.SearchKNNBoundedCtx).
func (s Snapshot) SearchKNNBoundedCtx(ctx context.Context, q *Sequence, k int, bound *KNNBound) ([]KNNResult, error) {
	return s.db.SearchKNNBoundedCtx(ctx, q, k, bound)
}

// Len reports the number of live sequences (see Database.Len).
func (s Snapshot) Len() int { return s.db.Len() }

// --- index-free evaluation kernels --------------------------------------
//
// The transaction layer answers queries as "indexed base result + linear
// scan of the unfolded delta". The scan side needs exactly the
// per-candidate work of phase 3 (and, for kNN, the exact-distance
// refinement) without an R*-tree, evaluated with the same kernels the
// indexed path uses so merged results are bit-identical to a fully
// indexed database holding the same content. These wrappers export that
// per-candidate work.

// EvalRange runs the phase-3 Dnorm pruning and solution-interval assembly
// for one candidate sequence against a partitioned query, exactly as the
// indexed search would after phase 2 — same kernel (phase3Hits, every query
// MBR evaluated), same arithmetic, same Match content. Skipping phase 2
// cannot change the outcome: Dmbr lower-bounds Dnorm (Lemma 2), so a
// candidate or pair the index would have pruned yields no window here. The query partitioning must
// come from NewSegmented with the database's PartitionConfig; the
// returned Match has SeqID unset (the caller owns id assignment). evals
// reports the Dnorm table rows computed, for SearchStats accounting.
func EvalRange(qseg *Segmented, g *Segmented, eps float64) (m Match, hit bool, evals int) {
	sc := getScratch()
	defer putScratch(sc)
	return phase3Hits(qseg.MBRs, nil, &sc.p3, g, qseg.Seq.Len(), eps)
}

// EvalAlign computes the exact sequence distance D(Q,S) and the best
// alignment offset for one candidate — the kNN refinement step — with
// the same alignment kernel the indexed kNN path uses. The result is
// exact whenever D ≤ cutoff; above it, dist is only known to exceed
// cutoff (see bestAlign). cutoff = +Inf is always exact.
func EvalAlign(qseg *Segmented, g *Segmented, cutoff float64) (offset int, dist float64) {
	sc := getScratch()
	defer putScratch(sc)
	return bestAlign(&sc.align, qseg.side(), g.side(), qseg.Seq.Dim(), cutoff)
}

// EvalMetric computes the exact metric distance between a partitioned
// query and one candidate — the metric-search analogue of EvalAlign,
// using the same kernels as the indexed metric path, so the value is
// bit-identical to it whenever it is ≤ cutoff (above, it is only known to
// exceed cutoff; +Inf is always exact). +Inf means the metric admits no
// alignment (DTW window narrower than the length difference) — never a
// match. A nil metric means MetricD.
func EvalMetric(qseg *Segmented, g *Segmented, m Metric, cutoff float64) float64 {
	sc := getScratch()
	defer putScratch(sc)
	if mt, ok := m.(MetricDTW); ok {
		return sc.dtwSeq(mt, qseg.Flat, g, qseg.Seq.Dim(), cutoff, nil)
	}
	_, dist := bestAlign(&sc.align, qseg.side(), g.side(), qseg.Seq.Dim(), cutoff)
	return dist
}
