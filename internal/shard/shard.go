// Package shard scales the single-node sequence database horizontally:
// a ShardedDB hash-partitions sequences over N independent core.Database
// instances — each with its own R*-tree, pager, and lock — and answers
// queries by scattering the paper's filter-and-refine pipeline across
// shards and gathering the per-shard results.
//
// Placement is by label: shard(S) = FNV-1a(S.Label) mod N. The rule is a
// pure function of the label and the shard count, so it is stable across
// restarts — reloading a saved corpus into a ShardedDB with the same N
// reproduces the placement exactly, and a router in front of several
// processes can compute it independently.
//
// Correctness is inherited, not re-proved: every shard runs the unmodified
// single-node algorithm over a disjoint subset of the corpus, and a range
// query's answer set is the union of the per-shard answer sets (Lemmas 1–3
// apply within each shard; no cross-shard pruning decision is ever made).
// kNN gathers per-shard top-k lists and merges to the global top k; the
// shards of one query share a live k-th-best distance as their refinement
// bound, which only ever prunes sequences strictly above the final k-th
// distance (see knnScatter).
//
// The query path is fault-tolerant under a Policy: context deadlines
// propagate from the caller through the scatter into every per-shard
// search, each shard call gets a per-attempt timeout with bounded
// retry-and-backoff and an optional hedged second request for
// stragglers, and — with Policy.AllowPartial — a shard that exhausts its
// attempts is skipped and the merged answer is flagged partial
// (SearchStats.Partial, SearchStats.ShardsAnswered) instead of failing
// the whole query. Per-shard calls go through the Backend interface so
// the FaultDB harness can inject latency, errors, and hangs
// deterministically in tests. The zero Policy reproduces the original
// fail-fast scatter exactly.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
)

// ErrNoShards is returned when a ShardedDB is created with fewer than one
// shard.
var ErrNoShards = errors.New("shard: shard count must be >= 1")

// ShardedDB presents N independent single-node databases as one. All
// methods are safe for concurrent use; writes to different shards never
// contend on a lock.
// Node is one shard's full database: the serving surface (DB), the
// query-path Backend, and the shard-internal hooks the router needs.
// *core.Database satisfies it, and so does a transactional wrapper
// (internal/txn) — NewWithNodes assembles a ShardedDB from either, so a
// durable deployment swaps in WAL-backed per-shard nodes without the
// router changing. Per-shard writes then commit on independent
// committers: a write to one shard never blocks reads — or writes — on
// any other.
type Node interface {
	DB
	Backend
	// PartitionConfig reports the MCOST segmentation settings in force.
	PartitionConfig() core.PartitionConfig
	// CandidatesDmbr runs only phases 1+2 and returns the candidate set.
	CandidatesDmbr(q *core.Sequence, eps float64) (map[uint32]bool, error)
}

var _ Node = (*core.Database)(nil)

// ShardedDB routes writes to per-sequence home shards and scatters
// queries across all of them, merging per-shard results into the same
// answers a single database holding every sequence would return. It
// satisfies the same DB surface as *core.Database, so the serving layer
// is topology-blind.
type ShardedDB struct {
	shards []Node
	opts   core.Options
	met    atomic.Pointer[shardMetrics] // nil until SetMetrics
	pol    atomic.Pointer[Policy]       // nil until SetPolicy (zero policy)

	// qcache (nil until SetCache) is the merged-result cache in front of
	// the scatter. Every router write notifies it with the written
	// sequence's MBR, so only gathered answers the write could have
	// affected are invalidated (see internal/cache).
	qcache atomic.Pointer[cache.Cache]

	bmu      sync.RWMutex
	backends []Backend // per-shard query targets; default the shards themselves
}

// New creates a ShardedDB of n empty shards, each configured with opts.
// With opts.Path set, shard i stores its index pages in
// "<path>.shard<i>" (a single shard uses the path verbatim, so a 1-shard
// database is file-compatible with core.NewDatabase).
func New(opts core.Options, n int) (*ShardedDB, error) {
	if n < 1 {
		return nil, ErrNoShards
	}
	s := &ShardedDB{shards: make([]Node, n), opts: opts}
	for i := range s.shards {
		so := opts
		if opts.Path != "" && n > 1 {
			so.Path = fmt.Sprintf("%s.shard%d", opts.Path, i)
		}
		db, err := core.NewDatabase(so)
		if err != nil {
			for _, d := range s.shards[:i] {
				d.Close()
			}
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		s.shards[i] = db
	}
	s.backends = make([]Backend, n)
	for i, db := range s.shards {
		s.backends[i] = db
	}
	return s, nil
}

// NewWithNodes assembles a ShardedDB over caller-built per-shard nodes —
// the durability hook: hand it N transactional (internal/txn) databases
// and the scatter-gather, placement, caching, and fault-tolerance
// machinery runs unchanged on top of MVCC snapshot reads and WAL-backed
// commits. All nodes must agree on dimensionality. The ShardedDB takes
// ownership: Close closes every node.
func NewWithNodes(nodes []Node) (*ShardedDB, error) {
	if len(nodes) < 1 {
		return nil, ErrNoShards
	}
	dim := nodes[0].Dim()
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("shard: node %d is nil", i)
		}
		if n.Dim() != dim {
			return nil, fmt.Errorf("shard: node %d has dim %d, node 0 has %d", i, n.Dim(), dim)
		}
	}
	s := &ShardedDB{
		shards: append([]Node(nil), nodes...),
		opts:   core.Options{Dim: dim, Partition: nodes[0].PartitionConfig()},
	}
	s.backends = make([]Backend, len(nodes))
	for i, n := range s.shards {
		s.backends[i] = n
	}
	return s, nil
}

// SetShardBackend substitutes shard i's query backend (nil restores the
// shard's own database). The substitution affects only the query path —
// what Do and SearchBatchCtx scatter — never writes, lookups or the Scan oracle. It exists for the
// fault-injection harness (FaultDB) and tests; a production deployment
// leaves the defaults in place. Safe to call while queries are in flight.
func (s *ShardedDB) SetShardBackend(i int, b Backend) {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	if b == nil {
		b = s.shards[i]
	}
	s.backends[i] = b
}

// backend returns shard i's current query target.
func (s *ShardedDB) backend(i int) Backend {
	s.bmu.RLock()
	defer s.bmu.RUnlock()
	return s.backends[i]
}

// ShardFor returns the shard index the placement rule assigns to label.
func ShardFor(label string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(label))
	return int(h.Sum32() % uint32(n))
}

// Shards returns the number of shards.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// Shard exposes shard i's underlying node (for stats and tests).
func (s *ShardedDB) Shard(i int) Node { return s.shards[i] }

// Dim returns the dimensionality every stored sequence must have.
func (s *ShardedDB) Dim() int { return s.opts.Dim }

// PartitionConfig returns the partitioning settings in force.
func (s *ShardedDB) PartitionConfig() core.PartitionConfig {
	return s.shards[0].PartitionConfig()
}

// --- id mapping ---------------------------------------------------------
//
// Each shard assigns its own dense local ids; the public id interleaves
// them as global = local*N + shard. The mapping is a bijection, keeps
// global ids stable as other shards grow, and makes routing a lookup-free
// mod/div.

func (s *ShardedDB) globalID(shard int, local uint32) uint32 {
	return local*uint32(len(s.shards)) + uint32(shard)
}

// SplitID decomposes a global sequence id into (shard, local id).
func (s *ShardedDB) SplitID(global uint32) (shard int, local uint32) {
	n := uint32(len(s.shards))
	return int(global % n), global / n
}

// --- writes -------------------------------------------------------------

// Add routes the sequence to its label's shard and returns the global id.
// As with core.Database.Add, the database keeps a reference to seq.
func (s *ShardedDB) Add(seq *core.Sequence) (uint32, error) {
	t0 := time.Now()
	sh := ShardFor(seq.Label, len(s.shards))
	local, err := s.shards[sh].Add(seq)
	if err != nil {
		return 0, err
	}
	seq.ID = s.globalID(sh, local)
	s.notifyWrite(geom.BoundingRect(seq.Points))
	if m := s.metrics(); m != nil {
		m.core.RecordAdd(time.Since(t0))
		m.core.SetShape(s.Len(), s.NumMBRs())
	}
	return seq.ID, nil
}

// AddAll bulk-loads a corpus: sequences are grouped by placement and each
// shard ingests its group concurrently (bounded by GOMAXPROCS), hitting
// the per-shard STR bulk-load path when the shard is empty. Returned
// global ids are in input order.
func (s *ShardedDB) AddAll(seqs []*core.Sequence) ([]uint32, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	n := len(s.shards)
	groups := make([][]*core.Sequence, n)
	positions := make([][]int, n) // positions[sh][j] = input index of groups[sh][j]
	for i, seq := range seqs {
		sh := ShardFor(seq.Label, n)
		groups[sh] = append(groups[sh], seq)
		positions[sh] = append(positions[sh], i)
	}

	ids := make([]uint32, len(seqs))
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
			locals, err := s.shards[sh].AddAll(groups[sh])
			if err != nil {
				errs[sh] = err
				return
			}
			for j, local := range locals {
				g := s.globalID(sh, local)
				groups[sh][j].ID = g
				ids[positions[sh][j]] = g
			}
		}(sh)
	}
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", sh, err)
		}
	}
	// One region notification covers the whole batch.
	var wrote geom.Rect
	for _, seq := range seqs {
		wrote.ExtendRect(geom.BoundingRect(seq.Points))
	}
	s.notifyWrite(wrote)
	if m := s.metrics(); m != nil {
		m.core.RecordBulkAdd(len(seqs))
		m.core.SetShape(s.Len(), s.NumMBRs())
	}
	return ids, nil
}

// Remove deletes the sequence with the given global id.
func (s *ShardedDB) Remove(global uint32) error {
	sh, local := s.SplitID(global)
	// Capture the victim's bounds before it disappears; an unexpectedly
	// missing directory entry degrades to the empty rect, which the
	// cache treats as "unknown extent — invalidate everything".
	var wrote geom.Rect
	if g := s.shards[sh].Segmented(local); g != nil {
		wrote = g.Bounds()
	}
	if err := s.shards[sh].Remove(local); err != nil {
		if errors.Is(err, core.ErrUnknownSequence) {
			return fmt.Errorf("%w: %d", core.ErrUnknownSequence, global)
		}
		return err
	}
	s.notifyWrite(wrote)
	if m := s.metrics(); m != nil {
		m.core.SetShape(s.Len(), s.NumMBRs())
	}
	return nil
}

// AppendPoints extends the sequence with the given global id (streaming
// ingestion; see core.Database.AppendPoints).
func (s *ShardedDB) AppendPoints(global uint32, pts []geom.Point) error {
	sh, local := s.SplitID(global)
	if err := s.shards[sh].AppendPoints(local, pts); err != nil {
		if errors.Is(err, core.ErrUnknownSequence) {
			return fmt.Errorf("%w: %d", core.ErrUnknownSequence, global)
		}
		return err
	}
	// Post-append bounds cover the pre-append ones (points are only
	// added), so the extended sequence's MBR is the write region. A
	// concurrent writer to the same id is covered by its own
	// notification; a missing entry degrades to invalidate-everything.
	var wrote geom.Rect
	if g := s.shards[sh].Segmented(local); g != nil {
		wrote = g.Bounds()
	}
	s.notifyWrite(wrote)
	return nil
}

// --- reads --------------------------------------------------------------

// Segmented returns the stored (sequence, partitioning) pair for a global
// id, or nil when the id is unknown.
func (s *ShardedDB) Segmented(global uint32) *core.Segmented {
	sh, local := s.SplitID(global)
	return s.shards[sh].Segmented(local)
}

// Sequences returns the live sequences, ordered by shard then local id.
// Their ID fields hold global ids.
func (s *ShardedDB) Sequences() []*core.Sequence {
	var out []*core.Sequence
	for _, db := range s.shards {
		out = append(out, db.Sequences()...)
	}
	return out
}

// Len returns the number of stored sequences across all shards.
func (s *ShardedDB) Len() int {
	total := 0
	for _, db := range s.shards {
		total += db.Len()
	}
	return total
}

// NumMBRs returns the total number of indexed partition MBRs.
func (s *ShardedDB) NumMBRs() int {
	total := 0
	for _, db := range s.shards {
		total += db.NumMBRs()
	}
	return total
}

// ShardLens returns each shard's live sequence count — the placement
// balance observable.
func (s *ShardedDB) ShardLens() []int {
	out := make([]int, len(s.shards))
	for i, db := range s.shards {
		out[i] = db.Len()
	}
	return out
}

// IndexHeight returns the tallest per-shard R*-tree height.
func (s *ShardedDB) IndexHeight() int {
	max := 0
	for _, db := range s.shards {
		if h := db.IndexHeight(); h > max {
			max = h
		}
	}
	return max
}

// IndexFanout returns the R*-tree node capacity in force (identical on
// every shard — they share one configuration).
func (s *ShardedDB) IndexFanout() int { return s.shards[0].IndexFanout() }

// Flush persists every shard's dirty index pages.
func (s *ShardedDB) Flush() error {
	for i, db := range s.shards {
		if err := db.Flush(); err != nil {
			return fmt.Errorf("shard: flushing shard %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every shard's index storage, returning the first error.
func (s *ShardedDB) Close() error {
	var first error
	for i, db := range s.shards {
		if err := db.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard: closing shard %d: %w", i, err)
		}
	}
	return first
}

// scatterWorkers bounds fan-out concurrency: one goroutine per shard, but
// never more than the machine can run.
func scatterWorkers(n int) int {
	if p := runtime.GOMAXPROCS(0); n > p {
		return p
	}
	return n
}
