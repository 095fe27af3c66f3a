package core

import (
	"context"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Metric search: range and kNN queries whose result sets are defined by
// an exact metric distance (D or DTW) instead of the Dnorm filter bound.
// Each metric pairs its exact distance with an index-level lower bound —
// MetricD rides the stock Dmbr/Dnorm pipeline (Lemmas 1–3), MetricDTW
// the Sakoe–Chiba envelope bounds of dtwlb.go — so both are served
// through the R*-tree with no false dismissals: the indexed result is
// definitionally identical to an exhaustive scan under the same metric
// (Kind Scan and the equivalence tests). Do dispatches here.

// dRange is the MetricD range body: the stock three phases, then each
// Dnorm survivor refined to its exact distance D with the flat alignment
// kernel (cutoff +Inf so every distance is exact, bit-identical to the
// scan path). Dnorm ≤ D (Lemma 3) guarantees no sequence with D ≤ ε is
// missing from the phase-3 survivors.
func (db *Database) dRange(ctx context.Context, q *Sequence, eps float64, sc *searchScratch, st *SearchStats, tr *obs.Trace) ([]MetricMatch, error) {
	matches, err := db.rangePhases(ctx, q, eps, sc, st, tr)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	dim := q.Dim()
	qs := sc.querySide(dim)
	// The survivors are filtered in place: the kept prefix of the list
	// rangePhases made is the answer, and the cleared tail lets go of the
	// Dnorm answer's interval slab, which a metric answer does not carry.
	out := matches[:0]
	for ci := range matches {
		if ci%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		g := db.seqs[matches[ci].SeqID]
		_, dist := bestAlign(&sc.align, qs, g.side(), dim, math.Inf(1))
		if dist <= eps {
			out = append(out, Match{SeqID: matches[ci].SeqID, Seq: g.Seq, Dist: dist})
		}
	}
	clear(matches[len(out):])
	exact := time.Since(t3)
	st.Phase3 += exact
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "exact-refine", exact,
			obs.Int("candidates_in", len(matches)),
			obs.Int("matches", len(out)),
			obs.Float("pruned_frac", prunedFrac(len(matches), len(out))))
	}
	return out, nil
}

// dtwRange is the MetricDTW range body. Phase 1 builds the query's
// Sakoe–Chiba envelopes; phase 2 probes the R*-tree with the full query
// bounding rect at ε — valid because every envelope rect is contained in
// the query rect, so MinDist(qRect, MBR) ≤ B1 ≤ DTW and no sequence
// within ε can be missed; phase 3 runs the pruning ladder per candidate:
// the envelope-vs-MBR index bound, then LB_Keogh over raw points, then
// the early-abandoning exact dynamic program. Every bound underestimates
// the normalized DTW distance (see dtwlb.go), so each dismissal is
// provably correct and the survivors are exactly the ε-ball.
func (db *Database) dtwRange(ctx context.Context, q *Sequence, eps float64, mt MetricDTW, sc *searchScratch, st *SearchStats, tr *obs.Trace) ([]MetricMatch, error) {
	d := q.Dim()
	n := q.Len()
	ds := &sc.dtw

	// Phase 1: envelope construction (the DTW analogue of partitioning —
	// the query-side structure all pruning reads).
	t0 := time.Now()
	ds.resetEnv()
	ds.buildEnvelopes(sc.qflat, n, d, mt.Window)
	st.QueryMBRs = 1
	st.Phase1 = time.Since(t0)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "envelope", st.Phase1,
			obs.Int("positions", n), obs.Int("window", mt.Window))
	}

	// Phase 2: coarse index filter with the full query bounding rect (the
	// suffix envelope at position 0).
	t1 := time.Now()
	qrect := geom.Rect{L: ds.sufLo[:d], H: ds.sufHi[:d]}
	var err error
	sc.refs, err = db.tree.AppendWithinDist(qrect, eps, sc.refs[:0])
	if err != nil {
		return nil, err
	}
	st.IndexEntriesHit = len(sc.refs)
	sc.beginHits(len(db.seqs), 1)
	sc.markHits(sc.refs, 0)
	sc.sortIDs()
	ids := sc.ids
	st.CandidatesDmbr = len(ids)
	st.Phase2 = time.Since(t1)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "filter", st.Phase2,
			obs.Int("candidates_in", st.TotalSequences),
			obs.Int("index_entries", st.IndexEntriesHit),
			obs.Int("candidates_out", st.CandidatesDmbr),
			obs.Float("pruned_frac", prunedFrac(st.TotalSequences, st.CandidatesDmbr)))
	}

	// Phase 3: the pruning ladder, cheapest bound first.
	t2 := time.Now()
	var out []MetricMatch
	for ci, id := range ids {
		if ci%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		g := db.seqs[id]
		if ds.dtwIndexLB(g) > eps {
			st.DTWEnvPruned++
			continue
		}
		if ds.lbKeogh(g, eps) > eps {
			st.DTWKeoghPruned++
			continue
		}
		st.DTWEvals++
		dist := sc.dtwSeq(mt, sc.qflat, g, d, eps, ds.keoghSuf)
		if dist <= eps {
			out = append(out, Match{SeqID: id, Seq: g.Seq, Dist: dist})
		}
	}
	st.MatchesDnorm = len(out)
	st.Phase3 = time.Since(t2)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "dtw-refine", st.Phase3,
			obs.Int("candidates_in", st.CandidatesDmbr),
			obs.Int("env_pruned", st.DTWEnvPruned),
			obs.Int("keogh_pruned", st.DTWKeoghPruned),
			obs.Int("dtw_evals", st.DTWEvals),
			obs.Int("matches", len(out)),
			obs.Float("pruned_frac", prunedFrac(st.CandidatesDmbr, st.DTWEvals)))
	}
	return out, nil
}

// knnDTW is the KNN kernel under MetricDTW, with knnD's contract (result,
// bound, counts, what may be cached): candidates are ranked by the envelope
// index bound and refined best-first with LB_Keogh and early-abandoning
// exact dynamic programs, stopping when the next lower bound exceeds the
// cutoff in force; the bound's counts also receive the envelope and LB_Keogh
// dismissals. Sequences the window cannot align with the query are never
// results, and Offset is always 0 — warping has no single alignment offset.
func (db *Database) knnDTW(ctx context.Context, query Query, mt MetricDTW, sc *searchScratch, st *SearchStats, tr *obs.Trace, t0 time.Time) ([]Match, bool, error) {
	q, k, bound := query.Seq, query.K, query.Bound
	sc.fillQueryFlat(q)
	d := q.Dim()
	ds := &sc.dtw
	ds.resetEnv()
	ds.buildEnvelopes(sc.qflat, q.Len(), d, mt.Window)

	// Envelope index bound for every live sequence; sequences the window
	// cannot align (length difference beyond it) are dismissed here.
	sc.heap = sc.heap[:0]
	envPruned := 0
	for id, g := range db.seqs {
		if g == nil {
			continue // removed
		}
		if id%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, false, err
			}
		}
		lb := ds.dtwIndexLB(g)
		if math.IsInf(lb, 1) {
			envPruned++
			continue
		}
		sc.heap = pushCand(sc.heap, knnCand{id: uint32(id), bound: lb})
	}

	// Refine in bound order; LB_Keogh guards each exact dynamic program.
	// candidates is every live sequence: the ladder below dismisses or
	// evaluates each exactly once (env + Keogh + refined = candidates).
	candidates := len(sc.heap) + envPruned
	keoghPruned := 0
	refined := 0
	var out []KNNResult
	worst := knnCutoff{bound: bound, own: math.Inf(1)}
	for step := 0; len(sc.heap) > 0; step++ {
		if step%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, false, err
			}
		}
		var c knnCand
		c, sc.heap = popCand(sc.heap)
		cut := worst.load()
		if c.bound > cut {
			envPruned++ // this candidate, plus the whole remaining heap below
			break
		}
		g := db.seqs[c.id]
		if ds.lbKeogh(g, cut) > cut {
			keoghPruned++
			continue
		}
		dist := sc.dtwSeq(mt, sc.qflat, g, d, cut, ds.keoghSuf)
		refined++
		if dist > cut {
			continue
		}
		out = worst.accept(out, KNNResult{SeqID: c.id, Seq: g.Seq, Dist: dist}, k)
	}
	envPruned += len(sc.heap) // dismissed by the index bound at the break
	took := time.Since(t0)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "dtw-knn", took,
			obs.Int("k", k),
			obs.Int("candidates", candidates),
			obs.Int("keogh_pruned", keoghPruned),
			obs.Int("refined", refined),
			obs.Float("pruned_frac", prunedFrac(candidates, refined)))
	}
	db.met.RecordKNN(took, refined, candidates-refined)
	db.met.RecordDTW(true, candidates, envPruned, keoghPruned, refined)
	bound.AddCounts(KNNCounts{Candidates: candidates, Refined: refined, EnvPruned: envPruned, KeoghPruned: keoghPruned})
	st.CPUTime = took
	return out, worst.unbounded(), nil
}

// scan is the Scan kernel, the exhaustive baseline the paper compares
// against and every indexed answer is tested against: every live sequence's
// exact distance from raw points — no MBRs, no index, no lower bounds, no
// early abandoning. Under a nil Metric it is the paper's sequential scan:
// D(Q,S) by sliding alignment, each sequence with D ≤ ε reported with its
// exact solution interval (Definition 6). Under a Metric it is that
// metric's ε-ball (scanMetric), which the indexed Range under the same
// metric must equal byte for byte — the no-false-dismissal property, and
// the soundness of every bound the indexed path prunes with, are directly
// testable against it.
func (db *Database) scan(query Query, sc *searchScratch) []Match {
	q, eps := query.Seq, query.Eps
	var out []Match
	if query.Metric == nil {
		for id, g := range db.seqs {
			if g == nil {
				continue // removed
			}
			s := g.Seq
			profile := OffsetProfile(q.Points, s.Points)
			dist := MinOfProfile(profile)
			if dist > eps {
				continue
			}
			queryLonger := len(q.Points) > len(s.Points)
			k := len(q.Points)
			if queryLonger {
				k = len(s.Points)
			}
			si := SolutionIntervalFromProfile(profile, k, len(s.Points), queryLonger, eps)
			out = append(out, Match{SeqID: uint32(id), Seq: s, Dist: dist, Interval: si})
		}
		return out
	}
	sc.fillQueryFlat(q)
	for id, g := range db.seqs {
		if g == nil {
			continue // removed
		}
		dist := sc.scanMetric(q, g, query.Metric)
		if dist <= eps {
			out = append(out, Match{SeqID: uint32(id), Seq: g.Seq, Dist: dist})
		}
	}
	return out
}

// scanMetric is the exhaustive scan's distance for the query whose flat
// points sc holds. D goes through BestAlignment, the seed reference: every
// alignment summed in full, none of the alignment kernel's bounds or
// cutoffs, so a scan-versus-index comparison tests that kernel instead of
// sharing it. DTW goes through the dynamic program with the cutoff
// disabled. A nil metric means MetricD.
func (sc *searchScratch) scanMetric(q *Sequence, g *Segmented, m Metric) float64 {
	if mt, ok := m.(MetricDTW); ok {
		return sc.dtwSeq(mt, sc.qflat, g, q.Dim(), math.Inf(1), nil)
	}
	_, dist := BestAlignment(q.Points, g.Seq.Points)
	return dist
}

// ScanMetric is the distance a Scan under m computes, for one
// (query, candidate) pair — for layers that scan sequences the database
// does not hold.
func ScanMetric(q *Sequence, g *Segmented, m Metric) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.fillQueryFlat(q)
	return sc.scanMetric(q, g, m)
}
