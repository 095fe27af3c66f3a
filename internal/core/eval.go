package core

import (
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
)

// Unindexed answers q over sequences no index holds — segs[i] under id
// ids[i], ids ascending, partitioned under cfg — the way Do answers it over a
// Database holding them, with Do's own kernels: an answer merged from an
// indexed database's and Unindexed's is the one a database indexing all of
// them gives, bit for bit. It is the transaction layer's delta pass. q must
// have passed Query.Check. The work is added to st, counted per kind as
// below — the candidates a transaction layer's answer has always reported
// for its delta. Per kind:
//
//   - Range, nil Metric: phase 2's linear form — every (query MBR, MBR) pair
//     at the probe's radius, dReach, in the squared-space arithmetic of the
//     index probe — fills the hit rows markHits would, and refine runs
//     phase 3 over them. CandidatesDmbr counts the candidates.
//   - Range under a Metric: every sequence's exact distance, each one counted
//     in CandidatesDmbr (and DTWEvals under DTW).
//   - Scan: the scan kernel over segs.
//   - KNN: every sequence refined against min(q.Bound, own k-th best) and
//     the best q.K returned in (Dist, SeqID) order, accepted distances
//     offered to q.Bound; under DTW a sequence the window cannot align is
//     never a result. Every sequence counts as a candidate and as refined.
//
// A Range adds its time to Phase3 and CPUTime. The query side is q's
// prepared form — the one the indexed pass beside it read — or, for a q no
// layer prepared, one Unindexed prepares itself.
func Unindexed(ctx context.Context, q Query, cfg PartitionConfig, ids []uint32, segs []*Segmented, st *SearchStats) ([]Match, error) {
	if q.Kind == KNN && q.K <= 0 {
		return nil, nil
	}
	q, own, err := Prepare(q, q.Seq.Dim(), cfg)
	if err != nil {
		return nil, err
	}
	defer own.Release()
	sc := getScratch()
	defer putScratch(sc)
	if q.Kind == Scan {
		return sc.scan(q, segs, ids), nil
	}
	t0 := time.Now()
	var out []Match
	if q.Metric == nil && q.Kind == Range {
		out, err = sc.linearRange(ctx, q, ids, segs, st)
	} else {
		out, err = sc.exactEach(ctx, q, ids, segs, st)
	}
	if err != nil || q.Kind == KNN {
		return out, err
	}
	took := time.Since(t0)
	st.Phase3 += took
	st.CPUTime += took
	return out, nil
}

// linearRange is Unindexed's paper's-answer Range: phase 2 as a pass over
// every (query MBR, MBR) pair (markLinear), then refine.
func (sc *searchScratch) linearRange(ctx context.Context, q Query, ids []uint32, segs []*Segmented, st *SearchStats) ([]Match, error) {
	p := q.prepared()
	reach := dReach(q.Eps, p.seq.Len(), p.dim)
	sc.beginHits(len(segs), len(p.qmbrs))
	for i, g := range segs {
		if i%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		sc.markLinear(p.qmbrs, uint32(i), g, reach)
	}
	st.CandidatesDmbr += len(sc.ids)
	return refine(ctx, p, q.Eps, sc.ids, segs, ids, sc, st)
}

// markLinear is phase 2's linear form for the sequence g at position p and
// the query MBRs qmbrs: it marks every query MBR with an MBR of g within
// reach, in the squared-space arithmetic of the index probe, so the row is
// the one markHits fills from the index — and returns the smallest squared
// Dmbr of any pair.
func (sc *searchScratch) markLinear(qmbrs []MBRInfo, p uint32, g *Segmented, reach float64) float64 {
	sc.p3.sq = ensureFloats(sc.p3.sq, len(g.MBRs))
	nearest := math.Inf(1)
	for i := range qmbrs {
		geom.MinDistSqBatch(qmbrs[i].Rect.L, qmbrs[i].Rect.H, g.Lo, g.Hi, sc.p3.sq)
		m := slices.Min(sc.p3.sq)
		if m <= reach*reach {
			sc.mark(p, i)
		}
		nearest = min(nearest, m)
	}
	return nearest
}

// exactEach is Unindexed's Range under a Metric and its KNN: each sequence's
// exact distance — the alignment kernel under D, the dynamic program under
// DTW — at no cutoff for a Range, against the cutoff in force for a KNN.
func (sc *searchScratch) exactEach(ctx context.Context, q Query, ids []uint32, segs []*Segmented, st *SearchStats) ([]Match, error) {
	p := q.prepared()
	d, qs := p.dim, p.side
	mt, dtw := q.Metric.(MetricDTW)
	var out []Match
	worst := knnCutoff{bound: q.Bound, own: math.Inf(1)}
	for i, g := range segs {
		if i%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		cut := math.Inf(1)
		if q.Kind == KNN {
			cut = worst.load()
		}
		var off int
		var dist float64
		if dtw {
			dist = sc.dtwSeq(mt, p.qflat, g, d, cut, nil)
		} else {
			off, dist = bestAlign(&sc.align, qs, g.side(), d, cut)
		}
		m := Match{SeqID: ids[i], Seq: g.Seq, Dist: dist}
		switch {
		case q.Kind == Range:
			st.CandidatesDmbr++
			if dtw {
				st.DTWEvals++
			}
			if dist <= q.Eps {
				out = append(out, m)
			}
		case dist <= cut && !(dtw && math.IsInf(dist, 1)):
			m.Offset = off
			out = worst.accept(out, m, q.K)
		}
	}
	if q.Kind == KNN {
		q.Bound.AddCounts(KNNCounts{Candidates: len(segs), Refined: len(segs)})
	}
	return out, nil
}
