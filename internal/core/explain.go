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
// (including the ones the index would normally never touch) with Search's
// own kernels, and returns the full decision record. Phase 2 is the linear
// form the transaction delta pass uses (markLinear), which marks the pairs
// the index probe returns, and phase 3 the same rule (refineOne), so the
// record says what Search decided: a sequence is "matched" exactly when
// Search returns it. It is O(database) and meant for debugging, not
// serving; it covers the paper's Range answer (nil Metric) only.
func (db *Database) Explain(q *Sequence, eps float64) (*Explanation, error) {
	if err := (Query{Seq: q, Eps: eps}).Check(db.opts.Dim); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, errClosed
	}
	qseg, err := NewSegmented(q, db.opts.Partition)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.segmentQuery(q, db.opts.Partition)
	sc.fillQueryFlat(q)
	qs := sc.querySide(q.Dim())
	reach := dReach(eps, q.Len(), q.Dim())
	sc.beginHits(len(db.seqs), len(sc.qmbrs))
	every := make([]uint64, sc.hitWords) // the row of a sequence phase 2 dismissed
	for i := range every {
		every[i] = ^uint64(0)
	}
	ex := &Explanation{Eps: eps, QueryMBRs: qseg.MBRs}
	for id, g := range db.seqs {
		if g == nil {
			continue
		}
		ce := CandidateExplanation{SeqID: uint32(id), Label: g.Seq.Label, Phase: "pruned-dmbr"}
		ce.MinDmbr = math.Sqrt(sc.markLinear(uint32(id), g, reach))
		row := sc.hitRow(uint32(id))
		candidate := slices.ContainsFunc(row, func(w uint64) bool { return w != 0 })
		if !candidate {
			row = every
		}
		var hit bool
		ce.MinDnorm, hit, _ = sc.refineOne(q, qs, row, g, eps, reach)
		switch {
		case !candidate:
		case hit:
			ce.Phase = "matched"
		default:
			ce.Phase = "pruned-dnorm"
		}
		ex.Candidates = append(ex.Candidates, ce)
	}
	return ex, nil
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
