package core

import "fmt"

// Metric bundles an exact sequence distance with the index-level lower
// bound that makes it searchable through the three-phase pipeline
// without false dismissals — the (distance, lower bound) pairing the
// generic-framework literature argues every filter-and-refine system
// should be generalized over. The existing exact-alignment distance D
// with its Dnorm/Dmbr bound chain (Lemmas 1–3) is the first instance;
// dynamic time warping with Sakoe–Chiba envelope bounds is the second.
//
// The interface is sealed (the fingerprint method is unexported): the
// search kernels dispatch on the two concrete types below, and a metric
// that the kernels don't know could silently break the
// no-false-dismissal contract, so external implementations are not
// accepted.
type Metric interface {
	// Name returns the metric's wire identifier, as accepted by
	// ParseMetric and the -metric flags: "d" or "dtw".
	Name() string
	// fingerprint returns the (id, parameter) pair folded into every
	// query-cache key so results computed under different distance
	// semantics can never alias each other.
	fingerprint() (id byte, param uint64)
}

// MetricD is the paper's exact alignment distance D: the minimum over
// all alignments of the mean per-point Euclidean distance (Definition
// 3). Its index-level lower bound is the Dnorm/Dmbr chain the three-phase
// search already runs, so metric searches under MetricD reuse the stock
// pipeline and refine survivors to exact distances.
type MetricD struct{}

// Name implements Metric.
func (MetricD) Name() string { return "d" }

func (MetricD) fingerprint() (byte, uint64) { return 'D', 0 }

// MetricDTW is dynamic time warping under a Sakoe–Chiba band: the
// minimum total point distance over monotone alignments with
// |i−j| ≤ Window, normalized by the longer length (see DTW). Window < 0
// means unconstrained. Its index-level lower bound is the multidimensional
// envelope bound of dtwIndexLB (never exceeds the DTW distance, so range
// and kNN searches through the index have no false dismissals), with
// LB_Keogh refinement ordering and early abandoning before each exact
// dynamic program.
type MetricDTW struct {
	// Window is the Sakoe–Chiba band half-width; negative means
	// unconstrained. A pair of sequences whose length difference exceeds
	// a nonnegative window admits no alignment and is never a match.
	Window int
}

// Name implements Metric.
func (MetricDTW) Name() string { return "dtw" }

func (m MetricDTW) fingerprint() (byte, uint64) { return 'W', uint64(int64(m.Window)) }

// ParseMetric resolves a -metric flag or HTTP field: "d" (or "") is the
// exact alignment distance, "dtw" is dynamic time warping with the given
// Sakoe–Chiba window. The window is ignored for "d"; for "dtw", -1 means
// unconstrained and anything below -1 is rejected as a likely typo.
func ParseMetric(name string, window int) (Metric, error) {
	switch name {
	case "", "d", "D":
		return MetricD{}, nil
	case "dtw", "DTW":
		if window < -1 {
			return nil, fmt.Errorf("core: invalid DTW window %d (use -1 for unconstrained)", window)
		}
		return MetricDTW{Window: window}, nil
	default:
		return nil, fmt.Errorf("core: unknown metric %q (want d or dtw)", name)
	}
}

// MetricMatch is a Match as a Range or Scan under a Metric reports it:
// SeqID, Seq and the exact metric distance Dist ≤ ε. Unlike the paper's
// Range answer (whose MinDnorm is a lower bound and whose set may include
// sequences with exact D > ε), such a result set is definitionally identical
// to an exhaustive scan under the same metric.
type MetricMatch = Match

// dtwSeq computes the normalized DTW distance between a query's flat
// points and a stored sequence, with the same kernel and arithmetic order
// on the indexed and the scan paths so their results are bit-identical.
// A distance above cutoff may come back as +Inf instead (dtwFlat abandons
// it); suf is lbKeogh's suffix sums for g when the caller has just bounded
// it, nil otherwise. +Inf also means "no valid alignment" (window narrower
// than the length difference) — never a match.
func (sc *searchScratch) dtwSeq(mt MetricDTW, qflat []float64, g *Segmented, dim int, cutoff float64, suf []float64) float64 {
	n := len(qflat) / dim
	mm := len(g.Flat) / dim
	sc.dtw.row = ensureFloats(sc.dtw.row, n+1)
	total := dtwFlat(qflat, n, g.Flat, mm, dim, mt.Window, cutoff, suf, sc.dtw.row)
	return total / float64(max(n, mm))
}
