package shard

import (
	"repro/internal/cache"
	"repro/internal/geom"
)

// SetCache attaches a merged-result cache in front of the scatter-gather
// (nil detaches). The front cache stores whole gathered answers — a
// core.Result: matches under global ids, merged stats, the per-shard
// breakdown — in the same core.CacheSlot a single database uses, so a
// repeated query skips the entire fan-out, not just the per-shard work.
// The same budget, split evenly, is also installed as per-shard caches
// on the child databases: a query that misses the front (say, after one
// shard ingested) still reuses the other shards' local results.
//
// Invalidation mirrors the single-node protocol: every ShardedDB write
// notifies the front cache with the written sequence's MBR (the
// per-shard caches hear about it from their own databases), entries
// record the region their answer depends on, and a write racing a
// scatter can only waste an entry, never serve a stale one — the cache's
// write-sequence counter, snapshotted before the fan-out, makes Put drop
// any answer a concurrent write may have outdated (see internal/cache).
// Partial answers are never cached.
func (s *ShardedDB) SetCache(c *cache.Cache) {
	s.qcache.Store(c)
	if c == nil {
		for _, db := range s.shards {
			db.SetCache(nil)
		}
		return
	}
	cfg := c.Config()
	n := len(s.shards)
	per := cache.Config{
		MaxEntries: (cfg.MaxEntries + n - 1) / n,
		MaxBytes:   cfg.MaxBytes / int64(n),
		Shards:     cfg.Shards,
	}
	for _, db := range s.shards {
		db.SetCache(cache.New(per))
	}
}

// QueryCache returns the front (merged-result) cache, or nil.
func (s *ShardedDB) QueryCache() *cache.Cache { return s.qcache.Load() }

// notifyWrite marks a completed router write covering the MBR w: the
// front cache (if any) invalidates every gathered answer the write could
// have affected. The per-shard caches are notified by their own databases
// as part of the shard-local write.
func (s *ShardedDB) notifyWrite(w geom.Rect) {
	if c := s.qcache.Load(); c != nil {
		c.Invalidate(w)
	}
}
