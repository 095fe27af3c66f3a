// Package mdseq is a similarity-search engine for multidimensional data
// sequences, implementing Lee, Chun, Kim, Lee & Chung, "Similarity Search
// for Multidimensional Data Sequences" (ICDE 2000).
//
// A multidimensional data sequence is an ordered series of n-dimensional
// feature vectors — a video stream with one color point per frame, an
// image's regions in space-filling-curve order, or a sliding-window
// embedding of a time series. mdseq stores such sequences, partitions each
// into minimum bounding rectangles with the paper's marginal-cost rule,
// indexes the MBRs in a disk-backed R*-tree, and answers range queries
// ("find sequences within distance ε of this query, and the sub-ranges
// where they match") with two pruning passes — the MBR distance Dmbr and
// the normalized distance Dnorm — that guarantee no false dismissals for
// sequence selection.
//
// # Quick start
//
//	db, err := mdseq.Open(mdseq.Options{Dim: 3})
//	...
//	id, err := db.Add(seq)                  // seq: *mdseq.Sequence
//	res, err := db.Do(ctx, mdseq.Query{Seq: q, Eps: 0.1})
//	for _, m := range res.Matches {
//	    fmt.Println(m.SeqID, m.Interval.Ranges()) // matching sub-ranges
//	}
//
// The subpackages under internal implement the substrates (geometry, page
// store, R*-tree, workload generators); this package is the supported
// surface.
package mdseq

import (
	"net/http"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
)

// Point is an n-dimensional feature vector.
type Point = geom.Point

// Rect is an n-dimensional minimum bounding rectangle.
type Rect = geom.Rect

// Sequence is a multidimensional data sequence (Definition 1 of the
// paper).
type Sequence = core.Sequence

// MBRInfo is one partition of a sequence: its bounding rectangle and the
// half-open point-index range it covers.
type MBRInfo = core.MBRInfo

// Segmented couples a sequence with its MBR partitioning.
type Segmented = core.Segmented

// PartitionConfig tunes the paper's MCOST partitioning algorithm.
type PartitionConfig = core.PartitionConfig

// Query is one similarity query as a value — range search (the zero Kind),
// kNN or the exhaustive scan, under the paper's Dnorm answer (a nil
// Metric), D or DTW — and DB.Do (ShardedDB.Do, Store.Do) the one entry
// point that answers it.
type Query = core.Query

// Result is the answer to a Query: the matches, the statistics of the work
// behind them and, from a sharded database, each shard's own.
type Result = core.Result

// QueryKind selects what a Query asks for.
type QueryKind = core.Kind

// The query kinds.
const (
	// Range asks for every sequence within Query.Eps; the zero value.
	Range = core.Range
	// KNN asks for the Query.K nearest sequences.
	KNN = core.KNN
	// Scan asks what Range asks of the exhaustive scan, the exact baseline.
	Scan = core.Scan
)

// Match is one sequence of an answer: a range match with its approximated
// solution interval, a neighbor with its exact distance and offset, or a
// scan result with its exact interval — see the field comments.
type Match = core.Match

// SearchStats describes the work each phase of a search did.
type SearchStats = core.SearchStats

// ScanResult is a Match as the sequential-scan baseline reports it.
type ScanResult = core.ScanResult

// PointRange is a half-open range of point indices.
type PointRange = core.PointRange

// IntervalSet is a normalized union of point ranges — a solution interval.
type IntervalSet = core.IntervalSet

// DnormResult carries a normalized distance and the MBR window realizing
// it.
type DnormResult = core.DnormResult

// Options configures a database.
type Options = core.Options

// DB is a sequence database: storage, partitioning, spatial index, and the
// three-phase similarity search.
type DB = core.Database

// Open creates a database. With Options.Path set the index pages live in
// that file; otherwise everything stays in memory.
func Open(opts Options) (*DB, error) { return core.NewDatabase(opts) }

// ErrNonFinite is the error (test with errors.Is) every entry point that
// takes a sequence — adding, appending, querying — returns for a NaN or
// ±Inf coordinate.
var ErrNonFinite = core.ErrNonFinite

// NewSequence validates points and wraps them into a Sequence.
func NewSequence(label string, points []Point) (*Sequence, error) {
	return core.NewSequence(label, points)
}

// DefaultPartitionConfig returns the paper's partitioning constants
// (Q_k + ε = 0.3, 64-point cap).
func DefaultPartitionConfig() PartitionConfig { return core.DefaultPartitionConfig() }

// Partition segments a sequence with the paper's marginal-cost rule.
func Partition(s *Sequence, cfg PartitionConfig) ([]MBRInfo, error) {
	return core.Partition(s, cfg)
}

// D is the sequence distance of Definitions 2–3: mean point distance for
// equal lengths, minimum sliding mean otherwise.
func D(s1, s2 *Sequence) float64 { return core.D(s1, s2) }

// Dmean is the mean point distance between equal-length point slices.
func Dmean(a, b []Point) float64 { return core.Dmean(a, b) }

// Dmbr is the minimum Euclidean distance between two MBRs (Definition 4).
func Dmbr(a, b Rect) float64 { return a.MinDist(b) }

// Dnorm is the normalized MBR distance (Definition 5) between a query MBR
// (rectangle plus point count) and the j-th MBR of a segmented sequence.
func Dnorm(qRect Rect, qCount int, g *Segmented, j int) DnormResult {
	return core.Dnorm(qRect, qCount, g, j)
}

// MinDnorm is min over targets of Dnorm — the pruning bound of Lemma 3.
func MinDnorm(qRect Rect, qCount int, g *Segmented) float64 {
	return core.MinDnorm(qRect, qCount, g)
}

// BestAlignment returns the offset of the best alignment of the shorter
// point slice inside the longer, with its mean distance.
func BestAlignment(a, b []Point) (offset int, dist float64) {
	return core.BestAlignment(a, b)
}

// DistToSimilarity maps a distance in the n-dimensional unit cube to a
// similarity in [0,1].
func DistToSimilarity(dist float64, n int) float64 { return geom.DistToSimilarity(dist, n) }

// KNNResult is a Match as a KNN query ranks it.
type KNNResult = core.KNNResult

// Explanation is the decision record produced by DB.Explain.
type Explanation = core.Explanation

// OpenExisting reattaches to a previously flushed index file, restoring
// the given sequences in their original order (see core.OpenDatabase).
func OpenExisting(opts Options, seqs []*Sequence) (*DB, error) {
	return core.OpenDatabase(opts, seqs)
}

// DTW is the dynamic time warping distance with a Sakoe–Chiba band of the
// given half-width (negative = unconstrained), normalized by the longer
// length. Use it to re-rank Search results when elastic matching matters;
// it does not lower-bound D and cannot replace it inside the index.
func DTW(a, b []Point, window int) (float64, error) { return core.DTW(a, b, window) }

// RefineDTW re-ranks matches by DTW between the query and each match's
// widest solution-interval range.
func RefineDTW(q *Sequence, matches []Match, window int) []Match {
	return core.RefineDTW(q, matches, window)
}

// Metric is a search distance paired with the index lower bounds that
// prune for it without false dismissals. MetricD is the paper's exact
// alignment distance D (the default everywhere a Metric is optional);
// MetricDTW is dynamic time warping served through envelope and
// LB_Keogh pruning. Set it as Query.Metric.
type Metric = core.Metric

// MetricD selects the exact alignment distance D — the same result set
// as DB.Search, with exact distances on each match.
type MetricD = core.MetricD

// MetricDTW selects dynamic time warping with a Sakoe–Chiba band of
// Window points (negative = unconstrained), normalized by the longer
// sequence length.
type MetricDTW = core.MetricDTW

// MetricMatch is a Match as a range search under a Metric reports it: a
// sequence within the threshold, with its exact distance.
type MetricMatch = core.MetricMatch

// ParseMetric resolves a metric by name ("", "d", or "dtw") and DTW
// window — the form the CLI and HTTP layers accept.
func ParseMetric(name string, window int) (Metric, error) { return core.ParseMetric(name, window) }

// Save persists db (live sequences + configuration) into a directory that
// Load can restore. Numeric ids are not preserved; labels are.
func Save(db *DB, dir string) error { return store.Save(db, dir) }

// Load restores a database saved with Save, rebuilding its index (in
// <dir>/index.db when fileIndex is set, in memory otherwise).
func Load(dir string, fileIndex bool) (*DB, error) { return store.Load(dir, fileIndex) }

// --- sharding -----------------------------------------------------------

// ShardedDB hash-partitions sequences by label over N independent
// single-node databases — each with its own R*-tree, pager, and lock —
// and answers queries by scatter-gather: every shard runs the unmodified
// three-phase algorithm on its disjoint slice of the corpus, so the
// no-false-dismissal guarantees carry over shard-locally and the merged
// answer set equals the single-node one.
type ShardedDB = shard.ShardedDB

// Store is the database surface shared by *DB and *ShardedDB: writes,
// Do, batch search, explain, and stats. Serving layers program against
// it so topology stays a deployment choice.
type Store = shard.DB

// ShardStats pairs a shard index with its local search statistics.
type ShardStats = shard.ShardStats

// ShardPolicy configures the fault tolerance of the sharded query path:
// per-shard timeouts, bounded retry with backoff, hedged requests for
// stragglers, and graceful degradation to results flagged partial
// (SearchStats.Partial / SearchStats.ShardsAnswered). Install it with
// ShardedDB.SetPolicy; the zero value keeps the original fail-fast
// scatter.
type ShardPolicy = shard.Policy

// OpenSharded creates a database of n hash shards, each configured with
// opts (with Options.Path set, shard i uses "<path>.shard<i>").
func OpenSharded(opts Options, n int) (*ShardedDB, error) { return shard.New(opts, n) }

// ShardFor returns the shard index the stable label-hash placement rule
// assigns to label among n shards.
func ShardFor(label string, n int) int { return shard.ShardFor(label, n) }

// SaveSharded persists a sharded database (one subdirectory per shard
// plus a shard-count record) into a directory LoadSharded can restore.
func SaveSharded(db *ShardedDB, dir string) error { return store.SaveSharded(db, dir) }

// --- caching -------------------------------------------------------------

// QueryCache is a sharded, cost-aware cache of query results. Attach one
// with DB.SetCache (or ShardedDB.SetCache, where the budget also covers
// per-shard caches behind a merged-result front cache): repeated range,
// kNN, and batch queries are then answered from memory.
// Entries are evicted by GDSF priority (recomputation cost × hit
// frequency / size, with an aging watermark); a write invalidates just
// the entries whose recorded query region (MBR + radius) the written
// sequence's MBR can reach. Cached answers are never stale, and partial
// scatter-gather results are never cached. See QueryCacheConfig for the
// knobs.
type QueryCache = cache.Cache

// QueryCacheConfig sizes a QueryCache: entry cap, approximate byte cap,
// lock-shard count. Zero fields take the package defaults (4096 entries,
// 64 MiB, 16 shards).
type QueryCacheConfig = cache.Config

// NewQueryCache creates a query-result cache sized by cfg.
func NewQueryCache(cfg QueryCacheConfig) *QueryCache { return cache.New(cfg) }

// QueryCacheMetrics is the mdseq_cache_* instrument set a QueryCache
// records into (hits, misses, evictions, invalidations, entry/byte
// gauges, hit ratio). Wire it with QueryCache.SetMetrics.
type QueryCacheMetrics = cache.Metrics

// NewQueryCacheMetrics resolves the mdseq_cache_* instruments in reg
// under a {cache="name"} label — use distinct names when several caches
// share a registry (e.g. "front" and "shard" on a sharded deployment).
func NewQueryCacheMetrics(reg *MetricsRegistry, name string) *QueryCacheMetrics {
	return cache.NewMetrics(reg, name)
}

// --- observability -------------------------------------------------------

// MetricsRegistry is a stdlib-only metrics registry: atomic counters,
// gauges, and fixed-bucket latency histograms with a Prometheus
// text-exposition encoder. Wire it into a database with SetMetrics and
// serve it with MetricsHandler (or mdsserve's built-in GET /metrics).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsHandler serves reg in Prometheus text exposition format.
func MetricsHandler(reg *MetricsRegistry) http.Handler { return obs.MetricsHandler(reg) }

// LoadSharded restores a database saved with SaveSharded, preserving the
// shard count and placement. A plain Save directory loads as one shard.
func LoadSharded(dir string, fileIndex bool) (*ShardedDB, error) {
	return store.LoadSharded(dir, fileIndex)
}
