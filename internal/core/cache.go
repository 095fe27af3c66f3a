package core

import (
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/geom"
)

// fp accumulates the two independent 64-bit hash streams behind a
// cache.Key. Stream 1 is FNV-1a; stream 2 runs the same xor-multiply
// scheme with a different offset basis and multiplier, so a collision in
// one stream is independent of the other.
type fp struct{ h1, h2 uint64 }

// newFP seeds both streams.
func newFP() fp {
	return fp{h1: 14695981039346656037, h2: 9650029242287828579}
}

// byte folds one byte into both streams.
func (f *fp) byte(b byte) {
	f.h1 = (f.h1 ^ uint64(b)) * 1099511628211
	f.h2 = (f.h2 ^ uint64(b)) * 0x9E3779B185EBCA87
}

// word folds one 64-bit word, little-endian.
func (f *fp) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v))
		v >>= 8
	}
}

// float folds one float64 by bit pattern (so -0 and 0 hash differently,
// which only makes the key stricter).
func (f *fp) float(v float64) { f.word(math.Float64bits(v)) }

// key finalizes the fingerprint.
func (f *fp) key() cache.Key { return cache.Key{Hi: f.h1, Lo: f.h2} }

// CacheKey is the one cache-key function: the fingerprint q's answer is
// cached under by a database — or a layer above whose configuration mirrors
// it — partitioning queries with cfg. Everything that can change the answer
// is in the key: the kind, the metric's distance semantics (id byte and
// parameter word, zero for the paper's nil-Metric answer — so a DTW answer
// can never alias a D answer for the same points and threshold, nor two DTW
// answers under different windows), the threshold of a range or the k of a
// kNN, the partitioning parameters that shape phase 1, and every query
// coordinate. The corpus version is not: invalidation handles it. A KNN's
// nil Metric and MetricD are one query and share one key.
func CacheKey(q Query, cfg PartitionConfig) cache.Key {
	f := newFP()
	f.byte(byte(q.Kind))
	var mid byte
	var mparam uint64
	if q.Kind == KNN {
		q.Eps, q.Metric = 0, orD(q.Metric)
	} else {
		q.K = 0
	}
	if q.Metric != nil {
		mid, mparam = q.Metric.fingerprint()
	}
	f.byte(mid)
	f.word(mparam)
	f.float(q.Eps)
	f.word(uint64(q.K))
	f.float(cfg.QueryExtent)
	f.word(uint64(cfg.MaxPoints))
	f.word(uint64(q.Seq.Len()))
	f.word(uint64(q.Seq.Dim()))
	for i := range q.Seq.Len() {
		for _, v := range q.Seq.At(i) {
			f.float(v)
		}
	}
	return f.key()
}

// RangeCacheKey is CacheKey for the paper's range search — the name
// bench/layers.go compiles against.
func RangeCacheKey(q *Sequence, eps float64, cfg PartitionConfig) cache.Key {
	return CacheKey(Query{Seq: q, Eps: eps}, cfg)
}

// SetCache attaches a query-result cache to the database (nil detaches).
// Do — and so SearchBatchCtx — consults it before running a Range or KNN
// query and fills it after with the result's compute cost (CPUTime) and
// geometric region; every write (Add, AddAll, Remove, AppendPoints)
// notifies the cache with the written sequence's MBR, so only entries the
// write could have affected are invalidated (see internal/cache). Safe to
// call while queries are in flight.
func (db *Database) SetCache(c *cache.Cache) { db.qcache.Store(c) }

// QueryCache returns the attached query cache, or nil.
func (db *Database) QueryCache() *cache.Cache { return db.qcache.Load() }

// notifyWrite marks a completed write covering the MBR w: the attached
// cache (if any) invalidates every entry the write could have affected.
// Pass the empty Rect when the write's extent is unknown — everything is
// then invalidated.
func (db *Database) notifyWrite(w geom.Rect) {
	if c := db.qcache.Load(); c != nil {
		c.Invalidate(w)
	}
}

// CacheSlot is a resolved cache slot for one query: the cache (nil when
// none is attached), the key, the write-sequence snapshot taken *before*
// the query ran, and the query's region. Storing under a pre-query
// snapshot is what makes a concurrent write safe: if a write lands
// during the search, the cache's counter is already past the snapshot
// and Put drops the entry, so it can never be served stale. It is the one
// slot of every layer that caches answers — a Database and the scatter in
// front of several.
type CacheSlot struct {
	c      *cache.Cache
	key    cache.Key
	seq    uint64
	region cache.Region
	k      int // of a KNN query, whose region's radius Put fills in; else 0
}

// SlotFor resolves q's slot in c, for a layer partitioning queries with
// cfg. With c nil, or q a Scan, the slot is detached: every Get a miss,
// every Put dropped, no key computed. Identical queries share a slot
// however they arrive (Do, a batch member). The region is the query's
// bounding rectangle with, for a range, the radius its index probe reaches
// (dReach, dtwReach: ε widened by the rounding a computed distance may sit
// below a computed Dmbr, under DTW for a sequence of as many points as an
// int32 point index allows). A write farther than that from the rectangle
// has every Dmbr to the query's MBRs beyond it, by the same squared-space
// arithmetic, so no probe reaches it and it cannot enter or leave the
// answer. A KNN's radius is not known until the answer is; Put fills it in.
// A prepared query's key and rectangle are computed once, by the first
// cache that asks.
func SlotFor(c *cache.Cache, q Query, cfg PartitionConfig) CacheSlot {
	if c == nil || q.Kind == Scan {
		return CacheSlot{}
	}
	key, bounds := q.cacheKey(cfg)
	slot := CacheSlot{
		c:      c,
		key:    key,
		seq:    c.Seq(),
		region: cache.Region{Rect: bounds},
	}
	if q.Kind == KNN {
		slot.k = q.K
	} else if mt, ok := q.Metric.(MetricDTW); ok {
		slot.region.Radius = dtwReach(q.Eps, q.Seq.Len(), math.MaxInt32, mt.Window, q.Seq.Dim())
	} else {
		slot.region.Radius = dReach(q.Eps, q.Seq.Len(), q.Seq.Dim())
	}
	return slot
}

// Key returns the slot's cache key; false from a detached slot, which has
// none.
func (r CacheSlot) Key() (cache.Key, bool) { return r.key, r.c != nil }

// Get returns the cached answer for this slot, its stats flagged CacheHit.
// The counters and phase timings stay the original run's — callers read
// them as "the cost this answer represents", not "the cost of this call".
// A range answer's match slice is the cached one, read-only to every
// consumer; a kNN's is a copy, as Put stored a copy: callers rank, trim and
// renumber neighbor lists in place.
func (r CacheSlot) Get() (Result, bool) {
	if r.c == nil {
		return Result{}, false
	}
	v, ok := r.c.Get(r.key)
	if !ok {
		return Result{}, false
	}
	res := *v.Data.(*Result)
	res.Stats.CacheHit = true
	if r.k > 0 {
		res.Matches = slices.Clone(res.Matches)
	}
	return res, true
}

// Put stores a completed answer under the pre-query write-sequence
// snapshot, charging its CPUTime as the entry's cost and, for the byte
// cap, what the entry keeps reachable: fixed fields, per-shard statistics,
// the match list's whole capacity (a list with spare room retains it) and
// the capacity of every match's ranges — with a range answer's cap == len
// slab sub-slices that is the slab, bar the last chunk's unused tail, which
// slabRanges keeps under one candidate count. Sequences are owned by the
// database and shared, not retained by the cache. A KNN's region radius is the k-th neighbor's distance when the
// answer is full — a write farther than that from the query cannot
// displace any neighbor — and +Inf (invalidate on every write) while the
// corpus holds fewer than k sequences, since any addition could then enter
// the answer.
func (r CacheSlot) Put(res Result) {
	if r.c == nil {
		return
	}
	reg := r.region
	if r.k > 0 {
		res.Matches = slices.Clone(res.Matches)
		reg.Radius = math.Inf(1)
		if len(res.Matches) == r.k {
			reg.Radius = res.Matches[r.k-1].Dist
		}
	}
	n := 160 + 48*len(res.PerShard) + 64*cap(res.Matches) // entry, stats, slice headers; the list
	for i := range res.Matches {
		n += 16 * cap(res.Matches[i].Interval.ranges)
	}
	stored := res // the copy the cache keeps; made here so a Put without a cache allocates nothing
	r.c.Put(r.key, r.seq, cache.Value{
		Data:   &stored,
		Bytes:  n,
		Cost:   res.Stats.CPUTime,
		Region: reg,
	})
}
