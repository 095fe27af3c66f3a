package core

import (
	"fmt"
	"io"
	"math"
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
	// Candidates covers every stored sequence, sorted by id.
	Candidates []CandidateExplanation
}

// CandidateExplanation is one sequence's fate in the pipeline.
type CandidateExplanation struct {
	SeqID    uint32  // database id of the candidate
	Label    string  // its label, for human-readable reports
	MinDmbr  float64 // min over (query MBR, data MBR) pairs
	MinDnorm float64 // min over query MBRs of the window-sweep minimum
	// Phase is the furthest stage reached: "pruned-dmbr" (never became a
	// candidate), "pruned-dnorm" (candidate, no qualifying window), or
	// "matched".
	Phase string
}

// Explain runs the search pipeline for q at eps, evaluating the phase-2
// and phase-3 bounds for every stored sequence (including the ones the
// index would normally never touch), and returns the full decision record.
// It is O(database) and meant for debugging, not serving; it covers the
// paper's Range answer (nil Metric) only.
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
	ex := &Explanation{Eps: eps, QueryMBRs: qseg.MBRs}
	for id, g := range db.seqs {
		if g == nil {
			continue
		}
		ce := CandidateExplanation{
			SeqID:    uint32(id),
			Label:    g.Seq.Label,
			MinDmbr:  math.Inf(1),
			MinDnorm: math.Inf(1),
		}
		for _, qm := range qseg.MBRs {
			calc := newDnormCalc(qm.Rect, qm.Count(), g)
			for _, sm := range g.MBRs {
				if d := qm.Rect.MinDist(sm.Rect); d < ce.MinDmbr {
					ce.MinDmbr = d
				}
			}
			if d := calc.sweep(math.Inf(-1), nil); d < ce.MinDnorm {
				ce.MinDnorm = d
			}
		}
		switch {
		case ce.MinDmbr > eps:
			ce.Phase = "pruned-dmbr"
		case ce.MinDnorm > eps:
			ce.Phase = "pruned-dnorm"
		default:
			ce.Phase = "matched"
		}
		ex.Candidates = append(ex.Candidates, ce)
	}
	sort.Slice(ex.Candidates, func(i, j int) bool {
		return ex.Candidates[i].SeqID < ex.Candidates[j].SeqID
	})
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
