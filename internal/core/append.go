package core

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// AppendToSegmented returns a new Segmented equal to g extended by pts —
// a pure copy-on-write function: g is never mutated, and the result
// shares no mutable storage with it, so readers holding g (an MVCC
// snapshot) stay consistent while the new version circulates. Only the
// tail is repartitioned: the greedy MCOST rule restarts its state at
// every MBR boundary, so re-running it from the start of g's last MBR
// yields exactly the segmentation a from-scratch partition of the whole
// extended sequence would produce (property verified by
// TestAppendEquivalence). The returned Segmented keeps g's ID and Label;
// as with Add, the caller must not mutate pts afterwards.
func AppendToSegmented(g *Segmented, pts []geom.Point, cfg PartitionConfig) (*Segmented, error) {
	dim := g.Seq.Dim()
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("core: appended point %d has dim %d, want %d: %w",
				i, len(p), dim, geom.ErrDimensionMismatch)
		}
		if k := nonFinite(p); k >= 0 {
			return nil, fmt.Errorf("core: appended point %d coordinate %d is %v: %w", i, k, p[k], ErrNonFinite)
		}
	}
	npts := make([]geom.Point, 0, len(g.Seq.Points)+len(pts))
	npts = append(append(npts, g.Seq.Points...), pts...)
	lastIdx := len(g.MBRs) - 1
	last := g.MBRs[lastIdx]
	tail := &Sequence{Points: npts[last.Start:]}
	tailMBRs, err := Partition(tail, cfg)
	if err != nil {
		return nil, err
	}
	ng := &Segmented{
		Seq:  &Sequence{ID: g.Seq.ID, Label: g.Seq.Label, Points: npts},
		MBRs: make([]MBRInfo, 0, lastIdx+len(tailMBRs)),
	}
	ng.MBRs = append(ng.MBRs, g.MBRs[:lastIdx]...)
	for _, m := range tailMBRs {
		ng.MBRs = append(ng.MBRs, MBRInfo{Rect: m.Rect, Start: m.Start + last.Start, End: m.End + last.Start})
	}
	// syncSoA builds fresh Flat/Lo/Hi arrays and re-aliases the copied
	// MBRInfo rects into them, so nothing in ng aliases g's storage.
	ng.syncSoA()
	return ng, nil
}

// AppendPoints extends a stored sequence with new points — streaming
// ingestion for live feeds (a camera appending frames). The extended
// version is built copy-on-write by AppendToSegmented and swapped into
// the directory under the write lock; the previous Segmented is never
// mutated, so rects or views handed out earlier stay valid. Index
// maintenance is limited to replacing the last MBR's entry and inserting
// the new tail MBRs.
func (db *Database) AppendPoints(id uint32, pts []geom.Point) error {
	if len(pts) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return errors.New("core: database closed")
	}
	if int(id) >= len(db.seqs) || db.seqs[id] == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSequence, id)
	}
	g := db.seqs[id]
	ng, err := AppendToSegmented(g, pts, db.opts.Partition)
	if err != nil {
		return err
	}
	if err := db.swapSegmentedLocked(id, g, ng); err != nil {
		return fmt.Errorf("core: appending to sequence %d: %w", id, err)
	}
	// The extended bounds cover the old ones (points are only added), so
	// one region covers both versions of the sequence.
	db.notifyWrite(ng.Bounds())
	return nil
}

// swapSegmentedLocked replaces the indexed version of sequence id: old's
// trailing entries (from the first MBR differing from ng) are deleted,
// ng's inserted, and the directory slot swapped. On an index error the
// already-applied entries are rolled back, leaving the old version fully
// indexed. Caller holds db.mu and has validated id against old.
func (db *Database) swapSegmentedLocked(id uint32, old, ng *Segmented) error {
	// Shared prefix: append-style updates keep every MBR before the old
	// last one bit-identical, so only the divergent suffix touches the
	// tree. A full replace (ReplaceSegmented) diverges at 0.
	shared := 0
	max := len(old.MBRs)
	if len(ng.MBRs) < max {
		max = len(ng.MBRs)
	}
	for shared < max-1 && old.MBRs[shared].Rect.Equal(ng.MBRs[shared].Rect) &&
		old.MBRs[shared].Start == ng.MBRs[shared].Start && old.MBRs[shared].End == ng.MBRs[shared].End {
		shared++
	}
	// Delete the old suffix entries.
	for j := shared; j < len(old.MBRs); j++ {
		if err := db.tree.Delete(old.MBRs[j].Rect, rtree.PackRef(id, uint32(j))); err != nil {
			// Roll the deletions back.
			for k := shared; k < j; k++ {
				db.tree.Insert(old.MBRs[k].Rect, rtree.PackRef(id, uint32(k)))
			}
			return err
		}
	}
	// Insert the new suffix entries.
	for j := shared; j < len(ng.MBRs); j++ {
		if err := db.tree.Insert(ng.MBRs[j].Rect, rtree.PackRef(id, uint32(j))); err != nil {
			for k := shared; k < j; k++ {
				db.tree.Delete(ng.MBRs[k].Rect, rtree.PackRef(id, uint32(k)))
			}
			for k := shared; k < len(old.MBRs); k++ {
				db.tree.Insert(old.MBRs[k].Rect, rtree.PackRef(id, uint32(k)))
			}
			return err
		}
	}
	db.seqs[id] = ng
	return nil
}

// ReplaceSegmented swaps in a replacement version of sequence id: the old
// version's index entries are removed, the new version's inserted, and
// the directory slot updated, all under one lock hold. It is the fold
// primitive the transaction layer uses to apply an ingest overlay (a
// sequence extended by appends since the last checkpoint) to the base
// database in one step. The replacement must have the same
// dimensionality; its Seq.ID is set to id.
func (db *Database) ReplaceSegmented(id uint32, ng *Segmented) error {
	if err := ng.Seq.Validate(); err != nil {
		return err
	}
	if ng.Seq.Dim() != db.opts.Dim {
		return fmt.Errorf("core: replacement dim %d, database dim %d: %w",
			ng.Seq.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return errors.New("core: database closed")
	}
	if int(id) >= len(db.seqs) || db.seqs[id] == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSequence, id)
	}
	ng.Seq.ID = id
	old := db.seqs[id]
	if err := db.swapSegmentedLocked(id, old, ng); err != nil {
		return fmt.Errorf("core: replacing sequence %d: %w", id, err)
	}
	// Both versions matter: removing the old one can erase results near
	// its bounds, the new one can create results near its own.
	db.notifyWrite(old.Bounds().Union(ng.Bounds()))
	db.met.SetShape(db.live, db.tree.Len())
	return nil
}
