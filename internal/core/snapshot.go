package core

import (
	"context"
	"math"
)

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
func (s Snapshot) SearchKNNBoundedCtx(ctx context.Context, q *Sequence, k int, bound float64) ([]KNNResult, error) {
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
// the same flat kernel the indexed kNN path uses (cutoff disabled, so
// the value is exact).
func EvalAlign(qseg *Segmented, g *Segmented) (offset int, dist float64) {
	return bestAlignFlat(qseg.Flat, g.Flat, qseg.Seq.Dim(), math.Inf(1))
}

// EvalMinDnorm computes the kNN lower bound for one candidate — the
// minimum Dnorm sweep value over all query MBRs — via the same kernel as
// the indexed lower-bound pass.
func EvalMinDnorm(qseg *Segmented, g *Segmented) float64 {
	sc := getScratch()
	defer putScratch(sc)
	return dnormBound(qseg.MBRs, &sc.p3, g)
}

// EvalMetric computes the exact metric distance between a partitioned
// query and one candidate — the metric-search analogue of EvalAlign,
// using the same kernels as the indexed metric path with the cutoff
// disabled, so the value is exact and bit-identical to it. +Inf means
// the metric admits no alignment (DTW window narrower than the length
// difference) — never a match.
func EvalMetric(qseg *Segmented, g *Segmented, m Metric) float64 {
	if m == nil {
		m = MetricD{}
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.qflat = ensureFloats(sc.qflat, len(qseg.Flat))
	copy(sc.qflat, qseg.Flat)
	return sc.distanceSeq(m, g, qseg.Seq.Dim(), math.Inf(1))
}
