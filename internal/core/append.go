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
// TestAppendEquivalence). The returned Segmented is stored, with g's ID
// and Label, and holds its own copy of every coordinate.
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
	flat := make([]float64, 0, len(g.Flat)+len(pts)*dim)
	flat = append(flat, g.Flat...)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	lastIdx := len(g.MBRs) - 1
	last := g.MBRs[lastIdx]
	tail := &Sequence{flat: flat[last.Start*dim:], dim: dim}
	tailMBRs, err := Partition(tail, cfg)
	if err != nil {
		return nil, err
	}
	mbrs := make([]MBRInfo, 0, lastIdx+len(tailMBRs))
	mbrs = append(mbrs, g.MBRs[:lastIdx]...)
	for _, m := range tailMBRs {
		mbrs = append(mbrs, MBRInfo{Rect: m.Rect, Start: m.Start + last.Start, End: m.End + last.Start})
	}
	// Every bound is copied into fresh Lo/Hi arrays and the copied MBRInfo
	// rects re-aliased into them, so nothing in the result aliases g's
	// storage.
	lo := make([]float64, len(mbrs)*dim)
	hi := make([]float64, len(mbrs)*dim)
	for j := range mbrs {
		copy(lo[j*dim:(j+1)*dim], mbrs[j].Rect.L)
		copy(hi[j*dim:(j+1)*dim], mbrs[j].Rect.H)
	}
	aliasBounds(mbrs, lo, hi, dim)
	return &Segmented{Seq: storedOver(g.Seq, dim, flat), MBRs: mbrs, Flat: flat, Lo: lo, Hi: hi, Starts: startsOf(mbrs)}, nil
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
	// tree.
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
