package shard

import (
	"repro/internal/cache"
	"repro/internal/geom"
)

// SetCache attaches a merged-result cache in front of the scatter-gather
// (nil detaches). It is the router's only cache: its entry and byte
// budget is the whole cache, and the shard nodes hold none. It stores
// whole gathered answers — a core.Result: matches under global ids,
// merged stats, the per-shard breakdown — in the same core.CacheSlot a
// single database uses, so a repeated query skips the entire fan-out.
//
// Invalidation mirrors the single-node protocol: every ShardedDB write
// notifies the cache with the written sequence's MBR, entries record the
// region their answer depends on, and a write racing a scatter can only
// waste an entry, never serve a stale one — the cache's write-sequence
// counter, snapshotted before the fan-out, makes Put drop any answer a
// concurrent write may have outdated (see internal/cache).
func (s *ShardedDB) SetCache(c *cache.Cache) { s.qcache.Store(c) }

// QueryCache returns the merged-result cache, or nil.
func (s *ShardedDB) QueryCache() *cache.Cache { return s.qcache.Load() }

// notifyWrite marks a completed router write covering the MBR w: the
// cache (if any) invalidates every gathered answer the write could have
// affected.
func (s *ShardedDB) notifyWrite(w geom.Rect) {
	if c := s.qcache.Load(); c != nil {
		c.Invalidate(w)
	}
}
