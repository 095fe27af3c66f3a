package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/rtree"
)

// Options configures a Database.
type Options struct {
	// Dim is the dimensionality of all stored sequences. Required.
	Dim int
	// Partition tunes the MCOST segmentation (zero value → paper defaults).
	Partition PartitionConfig
	// PoolPages is the index page store's buffer-pool capacity in pages
	// (0 → the pager's default). Pages are pager.DefaultPageSize bytes.
	PoolPages int
	// Path backs the index with a file; empty runs in memory.
	Path string
	// MaxEntries overrides the R*-tree fanout (0 → derive from page size).
	MaxEntries int
	// QuantizedMBR is accepted and has no effect on search: phase 3
	// evaluates only the (query MBR, candidate) pairs the index probe hit,
	// and a hit pair always passes a float32 screen. It is kept while
	// `bench/` passes it.
	QuantizedMBR bool
}

// Database stores segmented multidimensional sequences and answers
// similarity queries with the paper's three-phase algorithm over an
// R*-tree of partition MBRs.
type Database struct {
	mu   sync.RWMutex
	opts Options
	pg   *pager.Pager
	tree *rtree.Tree
	seqs []*Segmented // seqs[id] — ids are dense, assigned by Add; nil = removed
	live int          // number of non-nil entries in seqs
	met  *Metrics     // nil until SetMetrics; all methods no-op on nil
	// longest is the most points a stored sequence has held — never
	// lowered — the length a DTW range probe widens its radius for.
	longest int

	// qcache (nil until SetCache) holds query results tagged with their
	// compute cost and geometric region. Every write notifies it with
	// the written sequence's MBR so only entries the write could have
	// affected are invalidated (see internal/cache).
	qcache atomic.Pointer[cache.Cache]
}

// ErrUnknownSequence is returned by Remove for absent or already-removed
// ids.
var ErrUnknownSequence = errors.New("core: unknown sequence id")

// NewDatabase creates an empty database.
func NewDatabase(opts Options) (*Database, error) {
	if opts.Dim < 1 {
		return nil, fmt.Errorf("core: invalid dimension %d", opts.Dim)
	}
	if opts.Partition == (PartitionConfig{}) {
		opts.Partition = DefaultPartitionConfig()
	}
	if err := opts.Partition.validate(); err != nil {
		return nil, err
	}
	pg, err := pager.Open(pager.Options{PoolPages: opts.PoolPages, Path: opts.Path})
	if err != nil {
		return nil, err
	}
	tree, err := rtree.New(rtree.Options{Dim: opts.Dim, Pager: pg, MaxEntries: opts.MaxEntries})
	if err != nil {
		pg.Close()
		return nil, err
	}
	return &Database{opts: opts, pg: pg, tree: tree}, nil
}

// OpenDatabaseSegmented reattaches to an existing index file created by a
// database with the same options, restoring the given partitioned corpus
// (in its original Add order) without rebuilding the index — the one
// reattach: the store's restart path, where the segment file supplies
// Segmenteds by aliasing, and mdseq.OpenExisting, which partitions its
// sequences first (partitioning is deterministic). The index is validated
// against the corpus instead: it must hold exactly the corpus's MBR count,
// and its leaf refs must name every MBR of the corpus exactly once.
// Options.Path is required and must point at the previously flushed
// index.
func OpenDatabaseSegmented(opts Options, segs []*Segmented) (*Database, error) {
	db, err := openIndexed(opts)
	if err != nil {
		return nil, err
	}
	total := 0
	for i, g := range segs {
		if g == nil || g.Seq == nil {
			db.pg.Close()
			return nil, fmt.Errorf("core: nil segment %d", i)
		}
		if g.Seq.Dim() != db.opts.Dim {
			db.pg.Close()
			return nil, fmt.Errorf("core: sequence %d dim %d, want %d", i, g.Seq.Dim(), db.opts.Dim)
		}
		g = g.stored()
		g.Seq.ID = uint32(i)
		db.seqs = append(db.seqs, g)
		db.live++
		db.longest = max(db.longest, g.numPoints())
		total += len(g.MBRs)
	}
	if total != db.tree.Len() {
		db.pg.Close()
		return nil, fmt.Errorf("core: index holds %d entries but corpus has %d MBRs (stale index?)",
			db.tree.Len(), total)
	}
	if err := db.checkIndexRefs(); err != nil {
		db.pg.Close()
		return nil, err
	}
	return db, nil
}

// checkIndexRefs walks the leaf entries of an index a reattach adopted and
// refuses it unless they name every stored (sequence, MBR) pair exactly
// once — the check a packed-leaf bulk load makes, here against pages
// another process wrote. An entry count that matches says nothing about
// the refs, and one naming a sequence past the directory would otherwise
// panic the first search that reaches it.
func (db *Database) checkIndexRefs() error {
	cover := newRefCover(db.seqs)
	if err := db.tree.WalkRefs(cover.add); err != nil {
		return fmt.Errorf("core: index file refused: %w", err)
	}
	if err := cover.complete(); err != nil {
		return fmt.Errorf("core: index file refused: %w", err)
	}
	return nil
}

// openIndexed opens the pager and existing R*-tree for a reattach,
// leaving the sequence directory empty for the caller to fill.
func openIndexed(opts Options) (*Database, error) {
	if opts.Dim < 1 {
		return nil, fmt.Errorf("core: invalid dimension %d", opts.Dim)
	}
	if opts.Path == "" {
		return nil, errors.New("core: OpenDatabaseSegmented requires Options.Path")
	}
	if opts.Partition == (PartitionConfig{}) {
		opts.Partition = DefaultPartitionConfig()
	}
	if err := opts.Partition.validate(); err != nil {
		return nil, err
	}
	pg, err := pager.Open(pager.Options{PoolPages: opts.PoolPages, Path: opts.Path})
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Open(rtree.Options{Pager: pg, MaxEntries: opts.MaxEntries})
	if err != nil {
		pg.Close()
		return nil, err
	}
	if tree.Dim() != opts.Dim {
		pg.Close()
		return nil, fmt.Errorf("core: index dim %d, options dim %d", tree.Dim(), opts.Dim)
	}
	return &Database{opts: opts, pg: pg, tree: tree}, nil
}

// Flush persists all dirty index pages and metadata to the backing file
// (a no-op for in-memory databases). After a Flush, OpenDatabaseSegmented
// can reattach to the file.
func (db *Database) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return errClosed
	}
	return db.tree.Flush()
}

// Close releases the index storage.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return nil
	}
	err := db.tree.Flush()
	if cerr := db.pg.Close(); err == nil {
		err = cerr
	}
	db.pg = nil
	return err
}

// Add partitions the sequence, indexes its MBRs, and returns the assigned
// sequence id. Partitioning runs before the write lock is taken, so
// concurrent readers are only excluded for the index insertions
// themselves. The database stores its own flat copy of s (Segment) and
// keeps no reference to it; s.ID is set to the id.
func (db *Database) Add(s *Sequence) (uint32, error) {
	t0 := time.Now()
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if s.Dim() != db.opts.Dim {
		return 0, fmt.Errorf("core: sequence dim %d, database dim %d: %w",
			s.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	g, err := Segment(s, db.opts.Partition)
	if err != nil {
		return 0, err
	}
	id, err := db.AddSegmented(g)
	if err != nil {
		return 0, err
	}
	s.ID = id
	db.met.RecordAdd(time.Since(t0))
	return id, nil
}

// AddSegmented indexes a pre-partitioned sequence and returns its
// assigned id. It is the mutation half of Add, split out so a caller that
// already holds a Segmented pays only for the index insertions under the
// write lock. The partitioning must have been
// produced with the database's PartitionConfig. The database holds g
// stored: g itself when g.Seq is, else a copy over g.Flat. On an index
// failure the already-inserted entries are rolled back and the database
// is unchanged.
func (db *Database) AddSegmented(g *Segmented) (uint32, error) {
	g = g.stored()
	if g.Seq.Dim() != db.opts.Dim {
		return 0, fmt.Errorf("core: sequence dim %d, database dim %d: %w",
			g.Seq.Dim(), db.opts.Dim, geom.ErrDimensionMismatch)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return 0, errClosed
	}
	id, err := db.addSegmentedLocked(g)
	if err != nil {
		return 0, err
	}
	db.notifyWrite(g.Bounds())
	db.met.SetShape(db.live, db.tree.Len())
	return id, nil
}

// addSegmentedLocked inserts g's entries and appends it to the directory,
// rolling back the inserted entries on error. Caller holds db.mu.
func (db *Database) addSegmentedLocked(g *Segmented) (uint32, error) {
	id := uint32(len(db.seqs))
	for j, m := range g.MBRs {
		if err := db.tree.Insert(m.Rect, rtree.PackRef(id, uint32(j))); err != nil {
			for k := 0; k < j; k++ {
				db.tree.Delete(g.MBRs[k].Rect, rtree.PackRef(id, uint32(k)))
			}
			return 0, err
		}
	}
	g.Seq.ID = id
	db.seqs = append(db.seqs, g)
	db.live++
	db.longest = max(db.longest, g.numPoints())
	return id, nil
}

// DirLen returns the length of the sequence directory — the id the next
// Add would assign. Unlike Len it counts removed slots, since removal
// never frees an id.
func (db *Database) DirLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.seqs)
}

// Remove deletes a sequence and all its index entries. The id is not
// reused; looking it up afterwards yields nil.
func (db *Database) Remove(id uint32) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.pg == nil {
		return errClosed
	}
	if int(id) >= len(db.seqs) || db.seqs[id] == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSequence, id)
	}
	g := db.seqs[id]
	for j, m := range g.MBRs {
		if err := db.tree.Delete(m.Rect, rtree.PackRef(id, uint32(j))); err != nil {
			return fmt.Errorf("core: removing sequence %d, MBR %d: %w", id, j, err)
		}
	}
	db.seqs[id] = nil
	db.live--
	db.notifyWrite(g.Bounds())
	db.met.SetShape(db.live, db.tree.Len())
	return nil
}

// Len returns the number of stored (non-removed) sequences.
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.live
}

// NumMBRs returns the total number of indexed partition MBRs.
func (db *Database) NumMBRs() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.Len()
}

// Segmented returns the stored (sequence, partitioning) pair for id, or
// nil when the id is unknown.
func (db *Database) Segmented(id uint32) *Segmented {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if int(id) >= len(db.seqs) {
		return nil
	}
	return db.seqs[id]
}

// Sequences returns the live (non-removed) sequences in id order.
func (db *Database) Sequences() []*Sequence {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Sequence, 0, db.live)
	for _, g := range db.seqs {
		if g != nil {
			out = append(out, g.Seq)
		}
	}
	return out
}

// LiveSegments returns the live (non-removed) segments in id order — the
// already-partitioned columnar form the v2 segment store serializes
// directly, skipping the re-partitioning a Sequences round trip would
// force on reload. Callers must treat the segments as read-only: they
// are the database's own storage, not copies.
func (db *Database) LiveSegments() []*Segmented {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Segmented, 0, db.live)
	for _, g := range db.seqs {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// IndexHeight returns the height of the R*-tree over all partition MBRs.
func (db *Database) IndexHeight() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.Height()
}

// ScanIndex visits every entry of db's R*-tree in the tree's own walk
// order, rectangles and refs as the pages hold them: the layout two
// builds of one corpus can be compared by (a transaction fold's tree and
// the one a reload of its snapshot packs), not a query path.
func ScanIndex(db *Database, visit rtree.Visitor) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return errClosed
	}
	return db.tree.Scan(visit)
}

// IndexFanout returns the R*-tree node capacity in force.
func (db *Database) IndexFanout() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.MaxEntries()
}

// PartitionConfig returns the partitioning settings in force.
func (db *Database) PartitionConfig() PartitionConfig { return db.opts.Partition }

// Dim returns the dimensionality every stored sequence must have.
func (db *Database) Dim() int { return db.opts.Dim }

// Shards returns the number of independent index partitions — always 1
// for a single-node database. It exists so *Database satisfies the same
// serving interface as the sharded implementation (internal/shard).
func (db *Database) Shards() int { return 1 }

// PagerStats exposes the index page-access counters.
func (db *Database) PagerStats() pager.Stats { return db.pg.Stats() }

// ResetPagerStats zeroes the index page-access counters.
func (db *Database) ResetPagerStats() { db.pg.ResetStats() }

// Match is one sequence of an answer — the one hit type of every Query
// kind; which of its fields a kind fills is stated per field. KNNResult,
// MetricMatch and ScanResult are names for it.
type Match struct {
	SeqID uint32    // database id of the sequence
	Seq   *Sequence // the sequence itself
	// Dist is the exact distance to the query under the query's metric: D
	// or normalized DTW. Zero in the paper's Range answer (nil Metric),
	// which stops at the Dnorm bound.
	Dist float64
	// MinDnorm is the phase-3 bound the sequence was kept by (refineOne):
	// the smallest Dnorm window over the (query MBR, data MBR) pairs phase 2
	// hit, or, for a sequence shorter than the query, the weighted bound of
	// its own MBRs — a lower bound on D(Q,S), usable for ranking. Filled by
	// the paper's Range answer only.
	MinDnorm float64
	// Offset is the best alignment of the shorter side inside the longer:
	// filled by a KNN under D, zero elsewhere (warping has no one offset).
	Offset int
	// Interval is the solution interval: for the paper's Range answer its
	// approximation, the union of the point ranges involved in every
	// qualifying Dnorm computation; for a Scan under a nil Metric the exact
	// one of Definition 6. Empty under a Metric and for a KNN. The intervals
	// of one Range answer are sub-slices of a backing array the answer's
	// matches share (retaining one match retains it), each with cap == len:
	// an Add that grows one reallocates and never touches a neighbour.
	Interval IntervalSet
}

// SearchStats reports what each phase of one query did.
type SearchStats struct {
	QueryMBRs       int // phase 1: partitions of the query
	TotalSequences  int // database size at query time
	CandidatesDmbr  int // |ASmbr| after phase 2
	MatchesDnorm    int // |ASnorm| after phase 3
	IndexEntriesHit int // leaf entries the index search visited
	// DnormEvals counts the Dmbr values phase 3 computed: the candidate's
	// MBR count, summed over the (query MBR, candidate) pairs phase 2 hit.
	DnormEvals int
	Phase1     time.Duration // query partitioning
	Phase2     time.Duration // index pruning by Dmbr
	Phase3     time.Duration // Dnorm pruning + interval assembly
	// CPUTime is the summed duration of every phase execution behind this
	// stats value. For a single-node range search it equals Total(), for a
	// kNN it is the query's wall time; for a merged scatter-gather result
	// it sums across shards while Phase1–3 keep the slowest shard's value
	// (phases overlap in wall-clock; see shard.mergeStats). CPUTime/Total()
	// reads as the query's effective parallelism.
	CPUTime time.Duration
	// CacheHit is true when this result was served from the query cache
	// (SetCache) instead of being computed. The counters and phase
	// timings are then those of the run that originally produced the
	// entry — "the cost this answer represents", not the cost of this
	// call.
	CacheHit bool
	// DTWEnvPruned counts candidates the envelope-vs-MBR lower bound
	// dismissed during a MetricDTW search, before any point data was
	// read. Zero for non-DTW searches.
	DTWEnvPruned int
	// DTWKeoghPruned counts envelope survivors the LB_Keogh refinement
	// bound dismissed before the exact dynamic program.
	DTWKeoghPruned int
	// DTWEvals counts exact DTW dynamic programs run (including early
	// abandoned ones).
	DTWEvals int
	// QuantPruned always reads 0: it counted pairs the quantized-MBR
	// prefilter dismissed in phase 3, and range search no longer consults
	// that prefilter (see Options.QuantizedMBR). Kept for the log fields
	// and harness rows that read it.
	QuantPruned int
}

// Total returns the end-to-end wall-clock search duration. For merged
// scatter-gather stats each phase is the slowest shard's, so Total is an
// upper bound on observed wall-clock, not the cross-shard compute sum —
// that is CPUTime.
func (st SearchStats) Total() time.Duration { return st.Phase1 + st.Phase2 + st.Phase3 }

// filterPhases runs phases 1 and 2 of SIMILARITY_SEARCH for the prepared
// query p out of the given scratch, accumulating into st, and returns the
// candidate ids ascending. Phase 1, the query's partitioning, is p's, built
// once per query; its time is reported as this search's. Phase 2 probes at
// reach, the range's widened radius (dReach). What it learned stays in the
// scratch for phase 3: sc.hitRow(id) is the set of query MBRs with an index
// entry of sequence id within reach. The caller holds the read lock and has
// verified the database is open.
func (db *Database) filterPhases(ctx context.Context, p *Prepared, reach float64, sc *searchScratch, st *SearchStats, tr *obs.Trace) ([]uint32, error) {
	// Phase 1: partition the query sequence.
	st.QueryMBRs = len(p.qmbrs)
	st.Phase1 = p.phase1
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "partition", st.Phase1,
			obs.Int("query_mbrs", st.QueryMBRs))
	}

	// Phase 2: first pruning. Any sequence owning an MBR within Dmbr ≤ reach
	// of any query MBR becomes a candidate. The flat kernel compares in
	// squared space; each probe's hits go straight into the hit table, and
	// the distinct candidate ids are put in order by one bitmap pass.
	t1 := time.Now()
	sc.beginHits(len(db.seqs), len(p.qmbrs))
	for i := range p.qmbrs {
		if err := searchCanceled(ctx); err != nil {
			return nil, err
		}
		var err error
		sc.refs, err = db.tree.AppendWithinDist(p.qmbrs[i].Rect, reach, sc.refs[:0])
		if err != nil {
			return nil, err
		}
		st.IndexEntriesHit += len(sc.refs)
		sc.markHits(sc.refs, i)
	}
	sc.sortIDs()
	st.CandidatesDmbr = len(sc.ids)
	st.Phase2 = time.Since(t1)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "filter", st.Phase2,
			obs.Int("candidates_in", st.TotalSequences),
			obs.Int("index_entries", st.IndexEntriesHit),
			obs.Int("candidates_out", st.CandidatesDmbr),
			obs.Float("pruned_frac", prunedFrac(st.TotalSequences, st.CandidatesDmbr)))
	}
	return sc.ids, nil
}

// rangePhases runs the three phases of SIMILARITY_SEARCH out of the
// given scratch, accumulating into st. The caller holds the read lock,
// has verified the database is open, and owns stats finalization
// (CPUTime, metrics recording, caching): Do, for the paper's Range answer
// directly and under MetricD through dRange.
func (db *Database) rangePhases(ctx context.Context, q Query, sc *searchScratch, st *SearchStats, tr *obs.Trace) ([]Match, error) {
	p := q.prepared()
	ids, err := db.filterPhases(ctx, p, dReach(q.Eps, p.seq.Len(), p.dim), sc, st, tr)
	if err != nil {
		return nil, err
	}

	t2 := time.Now()
	out, err := refine(ctx, p, q.Eps, ids, db.seqs, nil, sc, st)
	if err != nil {
		return nil, err
	}
	st.MatchesDnorm = len(out)
	st.Phase3 = time.Since(t2)
	if tr != nil {
		tr.RecordSpan(obs.SpanFromContext(ctx), "refine", st.Phase3,
			obs.Int("candidates_in", st.CandidatesDmbr),
			obs.Int("dnorm_evals", st.DnormEvals),
			obs.Int("matches", st.MatchesDnorm),
			obs.Float("pruned_frac", prunedFrac(st.CandidatesDmbr, st.MatchesDnorm)))
	}
	return out, nil
}

// dReach is the radius a range search at eps, for a query of n points, probes
// and sweeps with under D and the paper's answer: eps over alignSlack(n, d).
// In float64 the scan's D is a mean that can round below every one of its
// terms while a Dmbr is one square root, so a sequence at D = eps could lie
// a few ulps outside a probe at eps; alignSlack bounds that gap for any
// alignment of at most n points. The proof is in DESIGN "Rounding".
func dReach(eps float64, n, d int) float64 { return eps / alignSlack(n, d) }

// refine is phase 3 of SIMILARITY_SEARCH — second pruning over the
// (query MBR, candidate) pairs phase 2 hit, qualifying windows accumulating
// into the solution interval — over the ascending candidates cands: positions
// in seqs whose hit rows sc holds, for the prepared query p, at eps. A match's
// SeqID is ids[c], or the position c itself when ids is nil (a Database's
// directory). Each candidate is decided by refineOne. The
// answer costs a constant number of allocations however many match: the list
// is made on the first hit with room for every candidate still to come (most
// match), and each hit's ranges go into one slab the matches share
// (slabRanges). No match allocates nothing.
func refine(ctx context.Context, p *Prepared, eps float64, cands []uint32, seqs []*Segmented, ids []uint32, sc *searchScratch, st *SearchStats) ([]Match, error) {
	reach := dReach(eps, p.seq.Len(), p.dim)
	var out []Match
	var slab []PointRange
	for ci, c := range cands {
		if ci%cancelCheckEvery == 0 {
			if err := searchCanceled(ctx); err != nil {
				return nil, err
			}
		}
		g := seqs[c]
		minDnorm, hit, evals := sc.refineOne(p, sc.hitRow(c), g, eps, reach)
		st.DnormEvals += evals
		if !hit {
			continue
		}
		if out == nil {
			out = make([]Match, 0, len(cands)-ci)
		}
		m := Match{SeqID: c, Seq: g.Seq, MinDnorm: minDnorm}
		if ids != nil {
			m.SeqID = ids[c]
		}
		m.Interval, slab = slabRanges(slab, sc.p3.iv.ranges, len(cands)-ci)
		out = append(out, m)
	}
	return out, nil
}

// refineOne is the phase-3 rule, the one Search, the transaction delta pass
// (Unindexed) and Explain decide a candidate by: whether g, whose phase-2 hit
// row is hits, survives at eps against the prepared query p, the bound it
// was decided by, and the Dmbr values computed. A survivor's solution
// interval is left in sc.p3.iv. reach is phase 2's radius (dReach).
//
// Lemma 3 — the smallest Dnorm window is at most D — holds only when the
// windowed side is at least as long as the query: then the best alignment
// lays query MBR i's c_i points on one contiguous run of c_i points of S, and
// a window of c_i points over S bounds them. So the roles follow the lengths,
// as in knnSeqBound (Zhu, Kollios & Athitsos' consistency property: a match
// contains a whole indexed window):
//
//   - |S| ≥ |Q|: the paper's rule, phase3Hits — a query MBR's windows over
//     S at reach, the hit pairs only, the minimum window as the bound.
//   - |S| < |Q|: S slides inside Q and meets only parts of the query MBRs, so
//     no window over S bounds D. The weighted bound of the shorter side,
//     knnSeqBound — S's MBRs swept over the query, already shrunk by
//     alignSlack and cancelMargin so that it is at most the computed D — is
//     compared with eps itself. The solution interval is Definition 6 with
//     the roles exchanged: every alignment lays all of S inside Q, so a
//     match's interval is all of S.
func (sc *searchScratch) refineOne(p *Prepared, hits []uint64, g *Segmented, eps, reach float64) (bound float64, hit bool, evals int) {
	qs := p.side
	n, m := int(qs.starts[len(qs.starts)-1]), g.numPoints()
	if m >= n {
		return phase3Hits(p.qmbrs, hits, &sc.p3, g, n, reach)
	}
	bound = knnSeqBound(&sc.p3, qs, g.side(), p.dim)
	sc.p3.iv.ranges = sc.p3.iv.ranges[:0]
	if bound <= eps {
		sc.p3.iv.Add(PointRange{Start: 0, End: m})
	}
	return bound, bound <= eps, len(g.MBRs) * (len(qs.starts) - 1)
}

// CandidatesDmbr runs only phase 1+2 and returns the candidate set — the
// paper's ASmbr, needed to measure Figure 6/7's Dmbr-only pruning rate.
func (db *Database) CandidatesDmbr(q *Sequence, eps float64) (map[uint32]bool, error) {
	if err := (Query{Seq: q, Eps: eps}).Check(db.opts.Dim); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pg == nil {
		return nil, errClosed
	}
	qmbrs, err := Partition(q, db.opts.Partition)
	if err != nil {
		return nil, err
	}
	candidates := make(map[uint32]bool)
	for _, qm := range qmbrs {
		err := db.tree.WithinDist(qm.Rect, eps, func(it rtree.Item) bool {
			seqID, _ := it.Ref.Unpack()
			candidates[seqID] = true
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return candidates, nil
}

// cancelCheckEvery is how many candidates a ctx-aware search processes
// between cancellation checks. Checking ctx.Err() takes a lock in some
// context implementations, so the batch keeps the check cost well under
// the metric work it gates while still bounding cancellation latency to
// one batch.
const cancelCheckEvery = 64

// searchCanceled translates a fired context into the error a ctx-aware
// query returns. The context's own error is wrapped, so callers can keep
// using errors.Is(err, context.DeadlineExceeded / context.Canceled).
func searchCanceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: search canceled: %w", err)
	}
	return nil
}
