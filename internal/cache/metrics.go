package cache

import (
	"time"

	"repro/internal/obs"
)

// Metrics is the pre-resolved instrument set a Cache records into. One
// Metrics may be shared by several caches (e.g. every per-shard cache of
// a sharded database): the counters then aggregate across them and the
// gauges reflect the last cache that moved, which is the intended
// fleet-level view. All methods are nil-safe so an unwired cache pays a
// pointer test per operation.
type Metrics struct {
	hits          *obs.Counter
	misses        *obs.Counter
	evictions     *obs.Counter
	invalidations *obs.Counter
	writes        *obs.Counter
	sweepSkips    *obs.Counter
	costSaved     *obs.Counter
	entries       *obs.Gauge
	bytes         *obs.Gauge
	ratio         *obs.Gauge
}

// NewMetrics resolves the mdseq_cache_* instruments in reg under a
// {cache="name"} label — "front" for a sharded database's merged-result
// cache, "shard" for the per-shard caches, "core" for a single node. A
// nil registry yields nil, which SetMetrics accepts as "unwired".
func NewMetrics(reg *obs.Registry, name string) *Metrics {
	if reg == nil {
		return nil
	}
	l := obs.Label{Key: "cache", Value: name}
	return &Metrics{
		hits: reg.Counter("mdseq_cache_hits_total",
			"Query-cache lookups served from a live entry.", l),
		misses: reg.Counter("mdseq_cache_misses_total",
			"Query-cache lookups that found nothing servable (absent or stale).", l),
		evictions: reg.Counter("mdseq_cache_evictions_total",
			"Entries dropped by GDSF eviction to hold the entry or byte cap.", l),
		invalidations: reg.Counter("mdseq_cache_invalidations_total",
			"Entries dropped because a corpus write's MBR could reach their region.", l),
		writes: reg.Counter("mdseq_cache_write_notifications_total",
			"Write notifications (region invalidations) delivered to the query cache.", l),
		sweepSkips: reg.Counter("mdseq_cache_sweep_skips_total",
			"Lock shards an MBR-scoped invalidation sweep skipped via the per-shard region summary.", l),
		costSaved: reg.Counter("mdseq_cache_hit_cost_saved_ns_total",
			"Summed recorded compute cost, in nanoseconds, of the results served from cache — the work hits avoided redoing.", l),
		entries: reg.Gauge("mdseq_cache_entries",
			"Live query-cache entries.", l),
		bytes: reg.Gauge("mdseq_cache_bytes",
			"Approximate bytes retained by live query-cache entries.", l),
		ratio: reg.Gauge("mdseq_cache_hit_ratio",
			"Lifetime hit ratio hits/(hits+misses) of the query cache.", l),
	}
}

// SetMetrics wires the cache to record into m (nil detaches). Safe to
// call while the cache is serving; the shape gauges are seeded
// immediately.
func (c *Cache) SetMetrics(m *Metrics) {
	c.met.Store(m)
	m.shape(c)
}

// hit counts one served lookup (and the compute it saved) and refreshes
// the hit-ratio gauge.
func (m *Metrics) hit(cost time.Duration) {
	if m == nil {
		return
	}
	m.hits.Inc()
	if cost > 0 {
		m.costSaved.Add(uint64(cost))
	}
	m.setRatio()
}

// miss counts one unserved lookup and refreshes the hit-ratio gauge.
func (m *Metrics) miss() {
	if m == nil {
		return
	}
	m.misses.Inc()
	m.setRatio()
}

// evict counts n policy evictions.
func (m *Metrics) evict(n int) {
	if m == nil || n == 0 {
		return
	}
	m.evictions.Add(uint64(n))
}

// invalidate counts n entries dropped by write invalidation.
func (m *Metrics) invalidate(n int) {
	if m == nil || n == 0 {
		return
	}
	m.invalidations.Add(uint64(n))
}

// write counts one write notification delivered to the cache.
func (m *Metrics) write() {
	if m == nil {
		return
	}
	m.writes.Inc()
}

// sweepSkip counts n lock shards a sweep excluded by summary alone.
func (m *Metrics) sweepSkip(n int) {
	if m == nil || n == 0 {
		return
	}
	m.sweepSkips.Add(uint64(n))
}

// shape publishes the current entry and byte gauges.
func (m *Metrics) shape(c *Cache) {
	if m == nil {
		return
	}
	m.entries.Set(float64(c.Len()))
	m.bytes.Set(float64(c.Bytes()))
}

// setRatio recomputes the lifetime hit ratio from the shared counters.
func (m *Metrics) setRatio() {
	h, s := float64(m.hits.Value()), float64(m.misses.Value())
	if h+s > 0 {
		m.ratio.Set(h / (h + s))
	}
}
