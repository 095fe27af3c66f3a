package core

// Index-free evaluation kernels.
//
// The transaction layer answers queries as "indexed base result + linear
// scan of the unfolded delta". The scan side needs exactly the
// per-candidate work of phase 3 (and, for kNN, the exact-distance
// refinement) without an R*-tree, evaluated with the same kernels the
// indexed path uses so merged results are bit-identical to a fully
// indexed database holding the same content. These wrappers export that
// per-candidate work.

import "slices"

// EvalRange runs the phase-3 Dnorm pruning and solution-interval assembly
// for one candidate sequence against a partitioned query, exactly as the
// indexed search would after phase 2 — same kernel (phase3Hits, every query
// MBR evaluated), same arithmetic, same Match content. Skipping phase 2
// cannot change the outcome: Dmbr lower-bounds Dnorm (Lemma 2), so a
// candidate or pair the index would have pruned yields no window here. The query partitioning must
// come from NewSegmented with the database's PartitionConfig; the
// returned Match has SeqID unset (the caller owns id assignment) and, on a
// hit, its own copy of the interval — one allocation, nothing shared with
// another match. evals reports the Dnorm table rows computed, for
// SearchStats accounting.
func EvalRange(qseg *Segmented, g *Segmented, eps float64) (m Match, hit bool, evals int) {
	sc := getScratch()
	defer putScratch(sc)
	m = Match{Seq: g.Seq}
	m.MinDnorm, hit, evals = phase3Hits(qseg.MBRs, nil, &sc.p3, g, qseg.Seq.Len(), eps)
	if hit {
		m.Interval.ranges = slices.Clone(sc.p3.iv.ranges)
	}
	return m, hit, evals
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
