// Package cache is a sharded, cost-aware result cache for query results
// with geometry-scoped (MBR) write invalidation.
//
// The similarity-search workloads of the paper's motivating applications
// (video streams, image archives) repeat queries heavily, and every phase
// of the three-phase search — query segmentation, R*-tree probing, Dnorm
// refinement — is pure with respect to the corpus, so a computed result
// is exactly reusable until a write changes the part of the corpus it
// depends on. Query cost is also wildly non-uniform: a high-dimensional
// kNN with poor pruning burns orders of magnitude more CPU than a tiny
// range probe. The cache therefore tracks, per entry, both the compute
// cost of the run that produced it (Value.Cost, the search's CPUTime) and
// the geometric region the result depends on (Value.Region), and uses
// each for one decision:
//
// Eviction is Greedy-Dual-Size-Frequency: each entry carries a priority
// H = L + frequency × cost / size, where L is a per-lock-shard aging
// watermark that rises to the evicted victim's H, so long-idle entries age
// out no matter how expensive they once were, while a frequently hit,
// expensive-to-recompute entry outranks a crowd of cheap ones. Admission
// is by self-eviction: a new entry enters with H = L + cost/size and is
// immediately evicted if it is itself the lowest priority in a full shard,
// so one-off cheap results cannot displace a proven expensive one.
//
// Invalidation is scoped by geometry. Writes are reported to the cache
// through Invalidate(w), where w is the MBR of the written sequence, and
// every entry whose recorded region provably cannot be affected is kept:
// an entry with region (rect R, radius r) is killed only when
// MinDist(R, w) ≤ r — the same conservative rectangle-distance bound (the
// paper's Dmbr, Lemma 1) that makes the search itself admit no false
// dismissals. Because Dmbr lower-bounds every point-pair distance, a write
// whose MBR is farther than r from the query's MBR cannot add, remove, or
// alter any result within radius r, so surviving hits are never stale (see
// DESIGN §5 for the full argument). Each lock shard keeps a coarse
// summary (union rect + max radius) so a write sweep skips entire shards
// it cannot intersect, keeping the write path ~O(intersecting entries)
// rather than O(cache).
//
// Writers racing queries are handled by a write-sequence protocol: a
// reader snapshots Seq() before running its query and passes the value to
// Put, which drops the entry if any write arrived in between — the sweep
// for that write may already have passed the entry's lock shard, so a
// late store can never slip a stale result in behind it.
//
// The store itself is sharded across independently locked segments
// (FNV fingerprints spread keys uniformly), with both an entry cap and an
// approximate byte cap so operators can bound memory, not just object
// count. Keys are 128-bit fingerprints of the query material (points, ε,
// partitioning parameters, query kind), computed by the caller; with
// 2^128 key space, accidental collisions are beyond reach of any
// realistic workload, so the cache never stores the raw query for
// verification.
package cache

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
)

// Key is a 128-bit query fingerprint. Callers build it from everything
// that determines a result: the query points, the threshold, the
// partitioning parameters, and a tag for the query kind (range / kNN /
// batch member). Two independent 64-bit FNV-1a streams keep the
// collision probability negligible without storing query material.
type Key struct {
	// Hi and Lo are the two independent hash streams.
	Hi, Lo uint64
}

// Region is the geometric footprint a cached result depends on: every
// corpus point that could influence the result lies within Radius
// (under Euclidean distance) of Rect. For a range query that is the
// query's bounding rectangle and ε; for a complete kNN answer it is the
// query's bounding rectangle and the k-th result distance. An empty
// Rect, an infinite Radius, or a NaN Radius all mean "unknown extent":
// such an entry is invalidated by every write.
type Region struct {
	// Rect bounds the query material the result was computed from.
	Rect geom.Rect
	// Radius is the distance beyond Rect the result can still depend on.
	Radius float64
}

// stale reports whether a write covering w can affect a result with this
// region. It is deliberately conservative: unknown or unbounded regions,
// empty write rectangles, and dimensionality mismatches all count as
// affected. Otherwise the test is MinDist(Rect, w) ≤ Radius — Dmbr
// lower-bounds the distance between any point pair drawn from the two
// rectangles, so a write failing it cannot change the result.
func (g Region) stale(w geom.Rect) bool {
	if g.Rect.IsEmpty() || w.IsEmpty() || g.Rect.Dim() != w.Dim() {
		return true
	}
	if !(g.Radius >= 0) || math.IsInf(g.Radius, 1) { // NaN or +Inf
		return true
	}
	return g.Rect.MinDistSq(w) <= g.Radius*g.Radius
}

// Value is one cached query result with its cost accounting.
type Value struct {
	// Data is the cached result (matches, kNN lists, merged scatter
	// answers — opaque to the cache). Consumers must treat it as
	// read-only: the same value is handed to every hit.
	Data any
	// Bytes is the approximate retained size of Data, charged against
	// Config.MaxBytes and used as the GDSF size term. Zero-byte values
	// are legal but weaken the byte cap; callers should estimate
	// honestly.
	Bytes int
	// Cost is the compute the result took to produce (the search's
	// CPUTime) — the GDSF cost term, and the amount every later hit
	// saves. Non-positive costs are floored to one nanosecond so a
	// zero-cost entry still ages normally.
	Cost time.Duration
	// Region is the result's geometric footprint for MBR-scoped
	// invalidation. The zero Region means "unknown": correct, but every
	// write then invalidates the entry.
	Region Region
}

// Config sizes a Cache.
type Config struct {
	// MaxEntries caps the number of cached results across all lock
	// shards (0 → DefaultMaxEntries). The cap is enforced per shard
	// (MaxEntries/Shards each), so it is approximate under skew.
	MaxEntries int
	// MaxBytes caps the summed Value.Bytes across all lock shards
	// (0 → DefaultMaxBytes). Enforced per shard, like MaxEntries.
	MaxBytes int64
	// Shards is the lock-shard count (0 → DefaultShards; rounded up to
	// a power of two). More shards means less contention under
	// concurrent queries at a small fixed memory cost.
	Shards int
}

// Defaults for the zero Config.
const (
	// DefaultMaxEntries is the entry cap when Config.MaxEntries is 0.
	DefaultMaxEntries = 4096
	// DefaultMaxBytes is the byte cap when Config.MaxBytes is 0 (64 MiB).
	DefaultMaxBytes = 64 << 20
	// DefaultShards is the lock-shard count when Config.Shards is 0.
	DefaultShards = 16
)

// withDefaults resolves zero fields and normalizes the shard count.
func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	return c
}

// Cache is a sharded, cost-aware query-result cache, safe for concurrent
// use. The zero Cache is not usable; construct with New.
type Cache struct {
	cfg    Config
	shards []lockShard
	mask   uint64

	// seq counts write notifications (Invalidate calls). Readers
	// snapshot it before running a query and pass it to Put, which drops
	// the entry if the counter moved — see the package comment.
	seq atomic.Uint64

	entries atomic.Int64 // live entries across shards
	bytes   atomic.Int64 // summed Value.Bytes across shards
	met     atomic.Pointer[Metrics]
}

// entry is one cached result with its replacement-policy state.
type entry struct {
	key Key
	val Value

	// freq and pri are the GDSF frequency count and priority H; hi is
	// the entry's index in the shard's min-heap.
	freq uint64
	pri  float64
	hi   int
}

// lockShard is one independently locked cache segment.
type lockShard struct {
	mu    sync.Mutex
	items map[Key]*entry
	heap  []*entry // min-heap by pri

	bytes      int64
	maxEntries int
	maxBytes   int64

	// watermark is the GDSF aging term L: it rises to each evicted
	// victim's priority, so entries untouched since long before the last
	// eviction rank below anything inserted or hit afterwards.
	watermark float64

	// Region summary for MBR-scoped invalidation: sum is the union of
	// every entry's region rect and sumRadius the largest radius, so a
	// write w with MinDist(sum, w) > sumRadius cannot touch any entry
	// here and the sweep skips the shard without walking it. sumAll is
	// set when any entry's region is unknown or unbounded (the summary
	// then cannot exclude anything). The summary only grows between
	// sweeps; each sweep rebuilds it from the survivors.
	sum       geom.Rect
	sumRadius float64
	sumAll    bool
}

// New creates a cache sized by cfg (zero fields take the package
// defaults).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:    cfg,
		shards: make([]lockShard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
	}
	perEntries := (cfg.MaxEntries + cfg.Shards - 1) / cfg.Shards
	if perEntries < 1 {
		perEntries = 1
	}
	perBytes := cfg.MaxBytes / int64(cfg.Shards)
	if perBytes < 1 {
		perBytes = 1
	}
	for i := range c.shards {
		c.shards[i] = lockShard{
			items:      make(map[Key]*entry),
			maxEntries: perEntries,
			maxBytes:   perBytes,
		}
	}
	return c
}

// Config returns the resolved configuration (defaults applied, shard
// count normalized).
func (c *Cache) Config() Config { return c.cfg }

// Seq returns the current write-sequence counter. Snapshot it before
// running a query and pass the snapshot to Put; Put drops the store when
// any write notification arrived in between, so a result computed
// against a pre-write corpus can never outlive the sweep that should
// have killed it.
func (c *Cache) Seq() uint64 { return c.seq.Load() }

// shard maps a key to its lock shard.
func (c *Cache) shard(k Key) *lockShard { return &c.shards[k.Hi&c.mask] }

// Get returns the value cached under k. Every stored entry is servable:
// writes that could have affected it already removed it eagerly.
func (c *Cache) Get(k Key) (Value, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		c.met.Load().miss()
		return Value{}, false
	}
	s.touch(e)
	v := e.val
	s.mu.Unlock()
	c.met.Load().hit(v.Cost)
	return v, true
}

// touch registers an access: it bumps the entry's frequency and
// recomputes its priority against the current watermark. Caller holds
// s.mu.
func (s *lockShard) touch(e *entry) {
	e.freq++
	e.pri = s.watermark + e.score()
	s.heapFix(e.hi)
}

// score is the GDSF frequency × cost / size term (the priority above the
// aging watermark). Cost is floored to one nanosecond and size to one
// byte so degenerate values still order sanely.
func (e *entry) score() float64 {
	cost := float64(e.val.Cost)
	if cost < 1 {
		cost = 1
	}
	size := float64(e.val.Bytes)
	if size < 1 {
		size = 1
	}
	return float64(e.freq) * cost / size
}

// Put stores v under k, where seq is the Seq() snapshot taken before the
// result was computed. The store is dropped when any write notification
// arrived since the snapshot (the result may predate a write whose sweep
// already passed) or when v alone exceeds a whole lock shard's byte
// budget. An existing entry under k is replaced.
// Entries are then evicted, lowest GDSF priority first, until both shard
// caps hold; the just-stored entry may itself be the victim (admission
// control).
func (c *Cache) Put(k Key, seq uint64, v Value) {
	s := c.shard(k)
	if int64(v.Bytes) > s.maxBytes {
		return
	}
	s.mu.Lock()
	if c.seq.Load() != seq {
		s.mu.Unlock()
		return
	}
	if e, ok := s.items[k]; ok {
		delta := int64(v.Bytes) - int64(e.val.Bytes)
		s.bytes += delta
		c.bytes.Add(delta)
		e.val = v
		s.touch(e)
	} else {
		e := &entry{key: k, val: v, freq: 1}
		e.pri = s.watermark + e.score()
		s.heapPush(e)
		s.items[k] = e
		s.bytes += int64(v.Bytes)
		c.bytes.Add(int64(v.Bytes))
		c.entries.Add(1)
	}
	s.growSummary(v.Region)
	evicted := 0
	for (len(s.items) > s.maxEntries || s.bytes > s.maxBytes) && len(s.items) > 0 {
		victim := s.heap[0]
		s.watermark = victim.pri
		s.removeEntry(victim, c)
		evicted++
	}
	s.mu.Unlock()
	m := c.met.Load()
	m.evict(evicted)
	m.shape(c)
}

// Invalidate reports a completed write covering the MBR w. It advances
// the write-sequence counter (failing every in-flight Put that predates
// the write), then sweeps the lock shards, removing exactly the entries
// whose regions the write can reach and skipping — via the per-shard
// summaries — shards it provably cannot touch. Pass the empty Rect when
// the write's extent is unknown; everything is then invalidated.
func (c *Cache) Invalidate(w geom.Rect) {
	c.seq.Add(1)
	m := c.met.Load()
	m.write()
	removed, skipped := 0, 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if len(s.items) == 0 {
			s.mu.Unlock()
			continue
		}
		if !s.sumAll && !(Region{Rect: s.sum, Radius: s.sumRadius}).stale(w) {
			skipped++
			s.mu.Unlock()
			continue
		}
		for _, e := range s.items {
			if e.val.Region.stale(w) {
				s.removeEntry(e, c)
				removed++
			}
		}
		s.rebuildSummary()
		s.mu.Unlock()
	}
	m.invalidate(removed)
	m.sweepSkip(skipped)
	m.shape(c)
}

// growSummary folds one stored region into the shard summary. Unknown or
// unbounded regions poison the summary (sumAll): the shard can then
// never be skipped until a sweep rebuilds it. Caller holds s.mu.
func (s *lockShard) growSummary(g Region) {
	if s.sumAll {
		return
	}
	if g.Rect.IsEmpty() || !(g.Radius >= 0) || math.IsInf(g.Radius, 1) ||
		(!s.sum.IsEmpty() && s.sum.Dim() != g.Rect.Dim()) {
		s.sumAll = true
		return
	}
	s.sum.ExtendRect(g.Rect)
	if g.Radius > s.sumRadius {
		s.sumRadius = g.Radius
	}
}

// rebuildSummary recomputes the shard summary from the surviving
// entries; sweeps call it while already walking the shard. Caller holds
// s.mu.
func (s *lockShard) rebuildSummary() {
	s.sum, s.sumRadius, s.sumAll = geom.Rect{}, 0, false
	for _, e := range s.items {
		s.growSummary(e.val.Region)
	}
}

// removeEntry unlinks e from the shard's heap, map, and byte accounting.
// Caller holds s.mu.
func (s *lockShard) removeEntry(e *entry, c *Cache) {
	s.heapRemove(e.hi)
	delete(s.items, e.key)
	s.bytes -= int64(e.val.Bytes)
	c.bytes.Add(-int64(e.val.Bytes))
	c.entries.Add(-1)
}

// --- GDSF min-heap --------------------------------------------------------
//
// A manual binary min-heap over pri with back-pointers (entry.hi), so a
// hit can fix one entry in place and an arbitrary entry can be removed by
// a sweep — operations container/heap only offers through interface
// boxing and index bookkeeping the caller must carry anyway.

func (s *lockShard) heapPush(e *entry) {
	e.hi = len(s.heap)
	s.heap = append(s.heap, e)
	s.heapUp(e.hi)
}

func (s *lockShard) heapSwap(a, b int) {
	s.heap[a], s.heap[b] = s.heap[b], s.heap[a]
	s.heap[a].hi, s.heap[b].hi = a, b
}

func (s *lockShard) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].pri <= s.heap[i].pri {
			break
		}
		s.heapSwap(p, i)
		i = p
	}
}

func (s *lockShard) heapDown(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.heap[r].pri < s.heap[l].pri {
			m = r
		}
		if s.heap[i].pri <= s.heap[m].pri {
			break
		}
		s.heapSwap(i, m)
		i = m
	}
}

// heapFix restores heap order after s.heap[i]'s priority changed.
func (s *lockShard) heapFix(i int) {
	s.heapDown(i)
	s.heapUp(i)
}

// heapRemove deletes s.heap[i].
func (s *lockShard) heapRemove(i int) {
	last := len(s.heap) - 1
	s.heapSwap(i, last)
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if i < last {
		s.heapFix(i)
	}
}

// Len returns the number of live entries across all shards.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Bytes returns the summed Value.Bytes of all live entries.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Purge drops every entry and resets the aging watermarks (used by tests
// and topology changes). Counts nothing into the metrics.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.items {
			s.removeEntry(e, c)
		}
		s.watermark = 0
		s.sum, s.sumRadius, s.sumAll = geom.Rect{}, 0, false
		s.mu.Unlock()
	}
	c.met.Load().shape(c)
}
