package store

import (
	"errors"

	"repro/internal/core"
	"repro/internal/rtree"
)

// Build is the parallel bulk-build pipeline: the corpus is validated and
// MCOST-partitioned into columnar segment form across GOMAXPROCS workers
// (core.PartitionAll), a single merge pass computes the packed R*-tree
// leaf grouping (STR, bottom-up) over every partition MBR, and the result
// is committed crash-safely to dir as a v2 store, index pages included.
// The written store opens with zero-copy Load — no re-partitioning, no
// one-at-a-time tree inserts.
func Build(dir string, seqs []*core.Sequence, cfg core.PartitionConfig) error {
	if len(seqs) == 0 {
		return errors.New("store: refusing to build an empty store")
	}
	dim := seqs[0].Dim()
	segs, err := core.PartitionAll(seqs, dim, cfg)
	if err != nil {
		return err
	}
	return saveAtomic(dir, func(tmp string) error {
		return writeDirV2(tmp, dim, cfg, segs, true)
	})
}

// packLeaves computes the STR leaf grouping of an R*-tree over every
// partition MBR of segs, under the default page-derived fanout for dim.
// Refs use dense positions (segment i, MBR j), matching what
// core.AddAllSegmented assigns on load. Returns the grouping and the
// fanout it is valid for.
func packLeaves(segs []*core.Segmented, dim int) ([][]rtree.Ref, int, error) {
	maxE, minE, err := rtree.CapacityFor(0, dim, 0)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, g := range segs {
		total += len(g.MBRs)
	}
	items := make([]rtree.Item, 0, total)
	for i, g := range segs {
		for j := range g.MBRs {
			items = append(items, rtree.Item{Rect: g.MBRs[j].Rect, Ref: rtree.PackRef(uint32(i), uint32(j))})
		}
	}
	grouped := rtree.STRLeaves(items, dim, maxE, minE)
	leaves := make([][]rtree.Ref, len(grouped))
	for gi, g := range grouped {
		refs := make([]rtree.Ref, len(g))
		for k, it := range g {
			refs[k] = it.Ref
		}
		leaves[gi] = refs
	}
	return leaves, maxE, nil
}
