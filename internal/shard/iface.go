package shard

import (
	"context"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// DB is the database surface the serving layers (internal/server,
// internal/cli, cmd/*) program against. Both the single-node
// *core.Database and the scatter-gather *ShardedDB satisfy it, so a
// deployment picks its topology with a flag, not a code path. Later
// scale work (remote shards, replicas) slots in behind the same
// interface.
type DB interface {
	// Add stores one sequence and returns its id.
	Add(*core.Sequence) (uint32, error)
	// AddAll bulk-loads sequences and returns their ids in input order.
	AddAll([]*core.Sequence) ([]uint32, error)
	// Remove deletes the sequence with the given id.
	Remove(uint32) error
	// AppendPoints extends a stored sequence with more points.
	AppendPoints(uint32, []geom.Point) error

	// Segmented returns a stored sequence with its MBR partitioning, or
	// nil if the id is unknown.
	Segmented(uint32) *core.Segmented
	// Sequences lists every live sequence.
	Sequences() []*core.Sequence

	// Do answers one query — range search, kNN or the exhaustive scan,
	// under the paper's Dnorm answer, D or DTW: the one search entry point
	// (see core.Query). The serving layer always passes the request
	// context, so a dead client or an expired query budget stops the work;
	// on a ShardedDB the query additionally runs under the fault-tolerance
	// Policy (per-shard timeout, retry, hedging, partial results).
	Do(context.Context, core.Query) (core.Result, error)
	// SearchBatchCtx answers several of the paper's range queries in one
	// pass, one result set and stats value per query, in input order.
	SearchBatchCtx(context.Context, []*core.Sequence, float64) ([][]core.Match, []core.SearchStats, error)
	// Explain records every pruning decision the paper's range search makes.
	Explain(*core.Sequence, float64) (*core.Explanation, error)

	// The four methods below are Do under the names bench/trace.go calls on
	// a DB; they go when a benchmark-only PR re-points `bench/`.

	// SearchCtx is Do for the paper's range search.
	SearchCtx(context.Context, *core.Sequence, float64) ([]core.Match, core.SearchStats, error)
	// SearchMetricCtx is Do for a range search under a metric.
	SearchMetricCtx(context.Context, *core.Sequence, float64, core.Metric) ([]core.MetricMatch, core.SearchStats, error)
	// SearchKNNCtx is Do for a kNN under D.
	SearchKNNCtx(context.Context, *core.Sequence, int) ([]core.KNNResult, error)
	// SearchKNNMetricCtx is Do for a kNN under a metric.
	SearchKNNMetricCtx(context.Context, *core.Sequence, int, core.Metric) ([]core.KNNResult, error)

	// Len reports the number of live sequences.
	Len() int
	// NumMBRs reports the number of indexed MBRs across all sequences.
	NumMBRs() int
	// IndexHeight reports the R*-tree height (max across shards).
	IndexHeight() int
	// IndexFanout reports the R*-tree node fan-out.
	IndexFanout() int
	// Shards reports the shard count (1 for a single-node database).
	Shards() int
	// Dim reports the point dimensionality.
	Dim() int

	// SetMetrics records query/ingest activity into a metrics registry
	// (nil detaches). On a ShardedDB only the scatter-gather layer
	// records, so a query counts once regardless of shard count.
	SetMetrics(*obs.Registry)

	// SetCache attaches a query-result cache (nil detaches). A write
	// invalidates the entries whose recorded region its MBR can reach and
	// no others; partial results are never cached. On a ShardedDB the
	// budget covers a merged-result cache in front of the scatter plus
	// per-shard caches.
	SetCache(*cache.Cache)
	// QueryCache returns the attached cache (the front cache on a
	// ShardedDB), or nil.
	QueryCache() *cache.Cache

	// Flush persists index pages to the backing file, if any.
	Flush() error
	// Close releases the database (flushing pager/WAL state first).
	Close() error
}

var (
	_ DB = (*core.Database)(nil)
	_ DB = (*ShardedDB)(nil)
)
