package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// segmentedBulkLoader is satisfied by nodes that can ingest an
// already-partitioned corpus without re-partitioning (*core.Database).
type segmentedBulkLoader interface {
	AddAllSegmented(segs []*core.Segmented, leaves [][]rtree.Ref, leafFanout int) ([]uint32, error)
}

// AddAllSegmented bulk-loads a pre-partitioned, pre-placed corpus:
// groups[i] is ingested verbatim by shard i, hitting the per-shard STR
// bulk path — the zero-copy reload half of the v2 segment store, which
// persists each shard's segments separately. Placement is verified
// against the label-hash rule (ShardFor), so a group file copied across
// topologies fails closed instead of landing on the wrong shard. leaves,
// when non-nil, carries per-shard packed R*-tree leaf groupings (refs by
// position within the shard's group) and leafFanouts the fanout each was
// packed for, both passed on to core.AddAllSegmented, which decides
// whether a grouping fits; pass nil to let each shard tile its own
// leaves. All shards must be empty. Global ids are assigned exactly as
// AddAll would have: dense local ids interleaved by the shard-count
// stride.
func (s *ShardedDB) AddAllSegmented(groups [][]*core.Segmented, leaves [][][]rtree.Ref, leafFanouts []int) error {
	n := len(s.shards)
	if len(groups) != n {
		return fmt.Errorf("shard: %d segment groups for %d shards", len(groups), n)
	}
	if leaves != nil && (len(leaves) != n || len(leafFanouts) != n) {
		return fmt.Errorf("shard: %d leaf groups and %d fanouts for %d shards", len(leaves), len(leafFanouts), n)
	}
	sizes := make([]int, n)
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
		sizes[sh] = len(group)
		total += len(group)
	}
	if total == 0 {
		return nil
	}
	_, err := s.bulkLoad(sizes, func(sh int) ([]uint32, error) {
		bl, ok := s.shards[sh].(segmentedBulkLoader)
		if !ok {
			return nil, fmt.Errorf("shard: node %d cannot bulk-load segments", sh)
		}
		if leaves == nil {
			return bl.AddAllSegmented(groups[sh], nil, 0)
		}
		return bl.AddAllSegmented(groups[sh], leaves[sh], leafFanouts[sh])
	}, func() geom.Rect {
		// The shards were empty, so no cached answer covered a stored
		// sequence: the empty rect, which invalidates everything, is exact
		// and spares a union over every MBR of the corpus.
		return geom.Rect{}
	})
	return err
}
