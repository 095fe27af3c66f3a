package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"text/tabwriter"
)

// Explanation records everything one Search decided and why: the query
// partitioning, each candidate's per-phase distances, and which pruning
// stage eliminated each non-result. It is the debugging companion to
// Search — when a sequence you expected is missing, Explain shows which
// bound excluded it.
type Explanation struct {
	Eps       float64   // the threshold the decisions were made against
	QueryMBRs []MBRInfo // the query's MCOST partitioning
	// Candidates covers every live sequence, in ascending id order.
	Candidates []CandidateExplanation
}

// CandidateExplanation is one sequence's fate in the pipeline, told by the
// numbers Search decides by.
type CandidateExplanation struct {
	SeqID uint32 // database id of the candidate
	Label string // its label, for human-readable reports
	// MinDmbr is the smallest Dmbr of any (query MBR, data MBR) pair, from
	// the squared-space distance phase 2 compares with the square of its
	// radius (dReach).
	MinDmbr float64
	// MinDnorm is the phase-3 bound (refineOne): for a sequence at least as
	// long as the query, the smallest Dnorm window over the pairs phase 2
	// hit — over every pair when it hit none; for a shorter one, the
	// weighted bound of its own MBRs swept over the query.
	MinDnorm float64
	// Phase is the furthest stage reached: "pruned-dmbr" (never became a
	// candidate), "pruned-dnorm" (candidate, dismissed by phase 3), or
	// "matched".
	Phase string
}

// Explain runs the search pipeline for q at eps over every stored sequence
// (including the ones the index would normally never touch) and returns the
// full decision record (ExplainUnindexed over the live corpus). It is
// O(database) and meant for debugging, not serving; it covers the paper's
// Range answer (nil Metric) only.
func (db *Database) Explain(q *Sequence, eps float64) (*Explanation, error) {
	if err := (Query{Seq: q, Eps: eps}).Check(db.opts.Dim); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, errClosed
	}
	ids := make([]uint32, 0, db.live)
	segs := make([]*Segmented, 0, db.live)
	for id, g := range db.seqs {
		if g != nil {
			ids, segs = append(ids, uint32(id)), append(segs, g)
		}
	}
	return ExplainUnindexed(q, eps, db.opts.Partition, ids, segs), nil
}

// ExplainUnindexed is Explain's body over segs[i] under id ids[i], ids
// ascending, partitioned under cfg — Explain's Unindexed, and so the
// transaction layer's delta pass of an explanation. It decides with
// Search's own kernels: phase 2 is the linear form the delta pass uses
// (markLinear), which marks the pairs the index probe returns, and phase 3
// the same rule (refineOne), so the record says what Search decided: a
// sequence is "matched" exactly when Search returns it. q must have passed
// Query.Check.
func ExplainUnindexed(q *Sequence, eps float64, cfg PartitionConfig, ids []uint32, segs []*Segmented) *Explanation {
	sc := getScratch()
	defer putScratch(sc)
	p := newPrepared(Query{Seq: q, Eps: eps}, q.Dim(), cfg).built()
	defer p.Release()
	reach := dReach(eps, q.Len(), q.Dim())
	sc.beginHits(len(segs), len(p.qmbrs))
	every := make([]uint64, sc.hitWords) // the row of a sequence phase 2 dismissed
	for i := range every {
		every[i] = ^uint64(0)
	}
	ex := &Explanation{Eps: eps, QueryMBRs: slices.Clone(p.qmbrs)}
	for i := range ex.QueryMBRs { // detach the rects from the scratch
		ex.QueryMBRs[i].Rect = ex.QueryMBRs[i].Rect.Clone()
	}
	for i, g := range segs {
		ce := CandidateExplanation{SeqID: ids[i], Label: g.Seq.Label, Phase: "pruned-dmbr"}
		ce.MinDmbr = math.Sqrt(sc.markLinear(p.qmbrs, uint32(i), g, reach))
		row := sc.hitRow(uint32(i))
		candidate := slices.ContainsFunc(row, func(w uint64) bool { return w != 0 })
		if !candidate {
			row = every
		}
		var hit bool
		ce.MinDnorm, hit, _ = sc.refineOne(p, row, g, eps, reach)
		switch {
		case !candidate:
		case hit:
			ce.Phase = "matched"
		default:
			ce.Phase = "pruned-dnorm"
		}
		ex.Candidates = append(ex.Candidates, ce)
	}
	return ex
}

// Counts returns how many sequences each stage eliminated or kept.
func (ex *Explanation) Counts() (prunedDmbr, prunedDnorm, matched int) {
	for _, c := range ex.Candidates {
		switch c.Phase {
		case "pruned-dmbr":
			prunedDmbr++
		case "pruned-dnorm":
			prunedDnorm++
		default:
			matched++
		}
	}
	return
}

// WriteTo renders the explanation as a text table (sequences sorted by
// MinDnorm so near-misses cluster at the top).
func (ex *Explanation) WriteTo(w io.Writer) (int64, error) {
	pd, pn, m := ex.Counts()
	n, err := fmt.Fprintf(w, "eps=%.4f query MBRs=%d | pruned by Dmbr: %d, by Dnorm: %d, matched: %d\n",
		ex.Eps, len(ex.QueryMBRs), pd, pn, m)
	total := int64(n)
	if err != nil {
		return total, err
	}
	sorted := append([]CandidateExplanation(nil), ex.Candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].MinDnorm < sorted[j].MinDnorm })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seq\tlabel\tminDmbr\tminDnorm\tphase")
	for _, c := range sorted {
		fmt.Fprintf(tw, "%d\t%s\t%.4f\t%.4f\t%s\n", c.SeqID, c.Label, c.MinDmbr, c.MinDnorm, c.Phase)
	}
	return total, tw.Flush()
}
