package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// AddAll stores a whole corpus at once. Sequences are validated and
// partitioned in parallel (PartitionAll) before any lock is taken; on an
// empty database the batch is then AddAllSegmented's STR bulk load — much
// faster and more compact than repeated Add — while on a non-empty
// database the pre-partitioned sequences are inserted under one lock hold.
// Either way the batch is all-or-nothing: a failure mid-insert rolls back
// every entry of the batch, so a partial bulk is never visible to readers
// or to a later crash recovery. Returned ids are dense and in input order.
// As with Add, the database stores flat copies, keeps no reference to the
// sequences and sets each one's ID.
func (db *Database) AddAll(seqs []*Sequence) ([]uint32, error) {
	ids, err := db.addAll(seqs)
	for i, id := range ids {
		seqs[i].ID = id
	}
	return ids, err
}

func (db *Database) addAll(seqs []*Sequence) ([]uint32, error) {
	segs, err := PartitionAll(seqs, db.opts.Dim, db.opts.Partition)
	if err != nil || len(segs) == 0 {
		return nil, err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return nil, errClosed
	}
	if len(db.seqs) == 0 {
		return db.bulkLoadLocked(segs, nil, 0)
	}
	// Bulk path needs an empty tree; insert the pre-partitioned batch
	// sequentially, undoing the whole batch on any failure. One region
	// notification covers the whole batch: the union of every added
	// sequence's bounds.
	var wrote geom.Rect
	ids := make([]uint32, len(segs))
	for i, g := range segs {
		id, err := db.addSegmentedLocked(g)
		if err != nil {
			db.unwindLocked(ids[:i])
			return nil, fmt.Errorf("core: bulk insert of sequence %d: %w", i, err)
		}
		ids[i] = id
		wrote.ExtendRect(g.Bounds())
	}
	db.notifyWrite(wrote)
	db.met.RecordBulkAdd(len(segs))
	db.met.SetShape(db.live, db.tree.Len())
	return ids, nil
}

// AddAllSegmented bulk-loads a corpus that is already partitioned — the
// zero-deserialization path of the v2 segment store, whose files carry
// the Segmented columnar form directly, and the transaction layer's fold
// and snapshot reload. The database must be empty; segs is its directory:
// segs[i] gets id i, and a nil entry is a hole, an id held by no sequence,
// as Remove leaves one, so a corpus with removed ids keeps their numbers.
// A segment that already carries its id is not written to, so segments a
// reader of another database holds may be handed over. leaves, when set,
// is a packed leaf grouping (each inner slice one leaf page of refs, as
// recorded by the store's packed-tree section) computed for an R*-tree of
// fanout leafFanout: when that is this database's fanout the grouping is
// reused verbatim and only the upper levels are tiled, skipping the
// leaf-level sorts; otherwise (or with leaves nil) the tree is STR
// bulk-loaded from the sequences' MBRs. Every ref of a reused
// grouping must name a valid (sequence, MBR) pair and the refs must cover
// every MBR exactly once; violations reject the whole load. The database
// keeps references to the segments, and to segs as its directory; callers
// must not mutate them afterwards. An input-form segment is held stored,
// as AddSegmented holds it.
func (db *Database) AddAllSegmented(segs []*Segmented, leaves [][]rtree.Ref, leafFanout int) ([]uint32, error) {
	if len(segs) == 0 {
		return nil, nil
	}
	for i, g := range segs {
		if g == nil {
			continue
		}
		if g.Seq == nil {
			return nil, fmt.Errorf("core: nil sequence in segment %d", i)
		}
		if g.Seq.Dim() != db.opts.Dim {
			return nil, fmt.Errorf("core: sequence %d dim %d, database dim %d: %w",
				i, g.Seq.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
		}
		segs[i] = g.stored()
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return nil, errClosed
	}
	if len(db.seqs) > 0 {
		return nil, errors.New("core: AddAllSegmented requires an empty database")
	}
	return db.bulkLoadLocked(segs, leaves, leafFanout)
}

// bulkLoadLocked is the bulk load of an empty database, AddAll's and
// AddAllSegmented's: it builds the R*-tree over every MBR of segs in one
// pass and installs segs, holes included, as the directory. Caller holds
// db.mu.
func (db *Database) bulkLoadLocked(segs []*Segmented, leaves [][]rtree.Ref, leafFanout int) ([]uint32, error) {
	total, longest, live := 0, 0, 0
	for _, g := range segs {
		if g != nil {
			total += len(g.MBRs)
			longest = max(longest, g.numPoints())
			live++
		}
	}
	if leafFanout != db.tree.MaxEntries() {
		leaves = nil // grouping computed for a different page layout
	}
	if leaves != nil {
		leafItems, err := leavesToItems(segs, leaves, total)
		if err != nil {
			return nil, err
		}
		if err := db.tree.BulkLoadLeaves(leafItems); err != nil {
			return nil, err
		}
	} else {
		items := make([]rtree.Item, 0, total)
		for i, g := range segs {
			if g == nil {
				continue
			}
			for j, m := range g.MBRs {
				items = append(items, rtree.Item{Rect: m.Rect, Ref: rtree.PackRef(uint32(i), uint32(j))})
			}
		}
		if err := db.tree.BulkLoad(items); err != nil {
			return nil, err
		}
	}
	ids := make([]uint32, len(segs))
	for i, g := range segs {
		if g != nil && g.Seq.ID != uint32(i) {
			g.Seq.ID = uint32(i)
		}
		ids[i] = uint32(i)
	}
	db.seqs = segs
	db.live = live
	db.longest = max(db.longest, longest)
	// The database was empty, so no cached answer covered a stored
	// sequence: the empty rect, which invalidates everything, is exact
	// and spares a union over every MBR of the corpus.
	db.notifyWrite(geom.Rect{})
	db.met.RecordBulkAdd(live)
	db.met.SetShape(db.live, db.tree.Len())
	return ids, nil
}

// leavesToItems resolves a packed leaf grouping of refs against the
// segments, verifying with a refCover that the grouping names every
// (sequence, MBR) pair exactly once — a corrupt or foreign tree section
// must fail the load, never produce a tree that silently misses entries.
// The items are cut from one slab, and their rects alias the segments'
// bounds (rtree.BulkLoadLeaves only reads them).
func leavesToItems(segs []*Segmented, leaves [][]rtree.Ref, total int) ([][]rtree.Item, error) {
	cover := newRefCover(segs)
	out := make([][]rtree.Item, len(leaves))
	slab := make([]rtree.Item, 0, total)
	for li, leaf := range leaves {
		at := len(slab)
		for _, ref := range leaf {
			if err := cover.add(ref); err != nil {
				return nil, fmt.Errorf("core: packed leaf %d: %w", li, err)
			}
			id, j := ref.Unpack()
			slab = append(slab, rtree.Item{Rect: segs[id].MBRs[j].Rect, Ref: ref})
		}
		out[li] = slab[at:len(slab):len(slab)]
	}
	if err := cover.complete(); err != nil {
		return nil, err
	}
	return out, nil
}

// refCover checks a set of index refs against a corpus: every ref must
// name a sequence of segs (by position; a nil entry, a hole, has no MBRs)
// and an MBR ordinal that sequence has, and every (sequence, MBR) pair
// must appear exactly once. It checks
// the packed leaves of a bulk load and the leaf entries of an index file
// a reattach adopts: a ref past the directory would otherwise surface as
// an out-of-range slice on the first search that reaches it.
type refCover struct {
	segs    []*Segmented
	base    []int // base[i] = MBRs stored before sequence i
	seen    []bool
	covered int
}

func newRefCover(segs []*Segmented) *refCover {
	base := make([]int, len(segs)+1)
	for i, g := range segs {
		base[i+1] = base[i]
		if g != nil {
			base[i+1] += len(g.MBRs)
		}
	}
	return &refCover{segs: segs, base: base, seen: make([]bool, base[len(segs)])}
}

// add records one ref, refusing one out of range or seen before.
func (c *refCover) add(ref rtree.Ref) error {
	id, j := ref.Unpack()
	if int(id) >= len(c.segs) || int(j) >= c.base[id+1]-c.base[id] {
		return fmt.Errorf("core: index ref (%d,%d) out of range", id, j)
	}
	ord := c.base[id] + int(j)
	if c.seen[ord] {
		return fmt.Errorf("core: index ref (%d,%d) duplicated", id, j)
	}
	c.seen[ord] = true
	c.covered++
	return nil
}

// complete refuses a set of refs that missed an MBR.
func (c *refCover) complete() error {
	if c.covered != len(c.seen) {
		return fmt.Errorf("core: index refs cover %d of %d MBRs", c.covered, len(c.seen))
	}
	return nil
}

// PartitionAll validates seqs, each of which must have dim dimensions, and
// partitions them under cfg in parallel across GOMAXPROCS workers
// (partitioning is CPU-bound and independent) into the form a database
// holds (Segment): nothing of seqs is retained. It is the one bulk
// partitioner: AddAll, the store's Build and v1 reads, and the
// transaction layer's AddAll and snapshot reload all call it. Each sequence is
// validated once, by the worker that partitions it (partition), with no
// serial pass ahead of the workers. Errors name the lowest failing
// sequence and wrap geom.ErrDimensionMismatch or ErrNonFinite where those
// apply.
func PartitionAll(seqs []*Sequence, dim int, cfg PartitionConfig) ([]*Segmented, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	segs := make([]*Segmented, len(seqs))
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := seqs[i]
				segs[i], errs[i] = Segment(s, cfg)
				if errs[i] == nil && s.Dim() != dim {
					segs[i], errs[i] = nil, fmt.Errorf("dim %d, want %d: %w", s.Dim(), dim, geom.ErrDimensionMismatch)
				}
			}
		}()
	}
	for i := range seqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: sequence %d: %w", i, err)
		}
	}
	return segs, nil
}

// unwindLocked removes the just-inserted batch prefix (ids, in insertion
// order) so a failed AddAll leaves the database exactly as it was.
// Caller holds db.mu. The ids are the most recent directory entries, so
// truncating the directory after deleting the index entries restores the
// pre-batch state (ids stay dense).
func (db *Database) unwindLocked(ids []uint32) {
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		g := db.seqs[id]
		for j, m := range g.MBRs {
			db.tree.Delete(m.Rect, rtree.PackRef(id, uint32(j)))
		}
		db.seqs = db.seqs[:id]
		db.live--
	}
}
