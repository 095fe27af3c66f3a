package shard

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// segmentedBulkLoader is satisfied by nodes that can ingest an
// already-partitioned corpus without re-partitioning (*core.Database).
type segmentedBulkLoader interface {
	AddAllSegmented(segs []*core.Segmented, leaves [][]rtree.Ref) ([]uint32, error)
}

// AddAllSegmented bulk-loads a pre-partitioned, pre-placed corpus:
// groups[i] is ingested verbatim by shard i, hitting the per-shard STR
// bulk path — the zero-copy reload half of the v2 segment store, which
// persists each shard's segments separately. Placement is verified
// against the label-hash rule (ShardFor), so a group file copied across
// topologies fails closed instead of landing on the wrong shard. leaves,
// when non-nil, carries per-shard packed R*-tree leaf groupings (refs by
// position within the shard's group, exactly what core.AddAllSegmented
// validates); pass nil to let each shard tile its own leaves. All
// shards must be empty. Global ids are assigned exactly as AddAll would
// have: dense local ids interleaved by the shard-count stride.
func (s *ShardedDB) AddAllSegmented(groups [][]*core.Segmented, leaves [][][]rtree.Ref) error {
	n := len(s.shards)
	if len(groups) != n {
		return fmt.Errorf("shard: %d segment groups for %d shards", len(groups), n)
	}
	if leaves != nil && len(leaves) != n {
		return fmt.Errorf("shard: %d leaf groups for %d shards", len(leaves), n)
	}
	total := 0
	for sh, group := range groups {
		for k, g := range group {
			if g == nil || g.Seq == nil {
				return fmt.Errorf("shard: shard %d segment %d is nil", sh, k)
			}
			if ShardFor(g.Seq.Label, n) != sh {
				return fmt.Errorf("shard: sequence %q placed on shard %d, label hashes to %d",
					g.Seq.Label, sh, ShardFor(g.Seq.Label, n))
			}
		}
		total += len(group)
	}
	if total == 0 {
		return nil
	}

	errs := make([]error, n)
	sem := make(chan struct{}, scatterWorkers(n))
	var wg sync.WaitGroup
	for sh := 0; sh < n; sh++ {
		if len(groups[sh]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bl, ok := s.shards[sh].(segmentedBulkLoader)
			if !ok {
				errs[sh] = fmt.Errorf("shard: node %d cannot bulk-load segments", sh)
				return
			}
			var lv [][]rtree.Ref
			if leaves != nil {
				lv = leaves[sh]
			}
			locals, err := bl.AddAllSegmented(groups[sh], lv)
			if err != nil {
				errs[sh] = err
				return
			}
			for j, local := range locals {
				groups[sh][j].Seq.ID = s.globalID(sh, local)
			}
		}(sh)
	}
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: shard %d: %w", sh, err)
		}
	}
	// The shards were empty, so no cached answer covered a stored
	// sequence: the empty rect, which invalidates everything, is exact
	// and spares a union over every MBR of the corpus.
	s.notifyWrite(geom.Rect{})
	if m := s.metrics(); m != nil {
		m.core.RecordBulkAdd(total)
		m.core.SetShape(s.Len(), s.NumMBRs())
	}
	return nil
}
