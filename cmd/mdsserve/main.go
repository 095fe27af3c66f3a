// Command mdsserve runs the mdseq HTTP server: a sequence database
// exposed over JSON endpoints (see internal/server for the API). It can
// start empty or preload a dataset generated by mdsgen, and it can
// hash-partition the corpus over N independent shards searched with
// scatter-gather (-shards).
//
// Usage:
//
//	mdsserve -addr :8080
//	mdsserve -addr :8080 -shards 4 -data video.mds
//	mdsserve -addr :8080 -store ./dbdir        # store dir from mdseq.Save/SaveSharded
//	mdsserve -addr :8080 -slowms 100 -pprof    # observability knobs
//	mdsserve -addr :8080 -metric dtw -dtw-window 16   # default to DTW search
//	mdsserve -addr :8080 -cache-entries 4096 -cache-bytes 67108864
//	mdsserve -addr :8080 -durable ./txndir    # WAL-backed commits + crash recovery
//	mdsserve -addr :8080 -durable ./txndir -group-commit-window 2ms -checkpoint-every 10000
//
// Durability (-durable): every write is committed through a write-ahead
// log and acknowledged only after fsync (disable with -fsync=false);
// concurrent writers share fsyncs within -group-commit-window; reads run
// on MVCC snapshots that never block on writers; a crash or restart
// replays the log, restoring exactly the acknowledged commits under
// their original ids. -checkpoint-every bounds the per-query delta scan
// by folding committed writes into the indexed base; a fold also writes
// a base snapshot once the log has outgrown the last one, so a restart
// replays at most about a snapshot's worth of log. GET /txnz reports
// commit, WAL, checkpoint, and snapshot statistics. With -shards N each
// shard gets its own log and committer
// under <dir>/shard<i>; a directory written under one shard count is
// refused under another. -data seeds only an empty directory: a restart
// onto one that holds data reads just the file's header, for its
// dimension. See OPERATIONS.md for the recovery runbook.
//
// A store directory carries its own shard count; -shards applies when
// starting empty or from -data. A store is served read-only: its trees
// are packed in memory from the leaf grouping the segment file stores,
// and nothing under the directory is written. On SIGINT/SIGTERM the
// server drains in-flight requests and closes the database (pager/WAL)
// cleanly.
//
// Storage format: store directories and durable checkpoints are written
// in the v2 columnar segment format (zero-copy mmap open). Directories
// in the older v1 row-record format still open; a durable node rewrites
// its base as v2 at its next checkpoint. -quantized-mbr is accepted and
// has no effect; it is kept while the benchmark harness in bench/ passes
// it (see DESIGN §13).
//
// Caching: -cache-entries and/or -cache-bytes attach a cost-aware
// query-result cache. Repeated range, kNN, and batch queries are answered
// from memory. Entries are kept by recomputation cost × hit frequency /
// size with an aging watermark (GDSF). A write removes only the entries
// whose recorded query region (MBR + radius) the written sequence's MBR
// can reach — queries over untouched regions keep hitting through
// unrelated writes. No stale answer is ever served (see DESIGN §5 for
// the safety argument). Hits are visible per response in the X-Mdseq-Cache
// header and "cached" field, and in aggregate via the mdseq_cache_*
// metric families (see OPERATIONS.md for the tuning runbook). Default
// is off.
//
// Observability: the server always exposes GET /metrics (Prometheus text
// format — search latency histograms, per-phase timings, pruning-ratio
// counters, per-shard fan-out metrics, and go_* runtime gauges polled
// every -runtime-metrics milliseconds) and logs one canonical wide-event
// JSON line per request to stderr carrying the request ID (echoed in
// X-Request-ID; a valid client-supplied X-Request-ID is honored), status,
// per-span timings, and pruning attributes. A flight recorder retains the
// -trace-retain slowest traces per latency bucket plus recent errored
// requests, served at GET /debug/tracez (?format=text for span
// trees) with the active-request table at GET /debug/requestz. Any query
// slower than -slowms milliseconds dumps its full per-phase and per-shard
// statistics to the log, annotated with the request ID and its latency
// bucket so it can be correlated with /debug/tracez and the histogram
// bucket it landed in; -pprof mounts net/http/pprof under /debug/pprof/.
//
// Example session:
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/search -d '{"points":[[0.1,0.2,0.3]],"eps":0.1}'
//	curl localhost:8080/metrics | grep mdseq_search
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seqio"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdsserve: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataPath = flag.String("data", "", "optional dataset to preload (mdsgen output; .csv supported)")
		storeDir = flag.String("store", "", "optional store directory to load (from mdseq.Save or SaveSharded)")
		dim      = flag.Int("dim", 3, "dimensionality when starting empty")
		shards   = flag.Int("shards", 1, "number of hash shards (ignored with -store, which carries its own count)")
		slowMS   = flag.Int("slowms", 500, "slow-query log threshold in milliseconds (0 disables)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		traceRetain = flag.Int("trace-retain", 4, "slowest traces retained per latency bucket for /debug/tracez (0 disables the flight recorder)")
		runtimeMS   = flag.Int("runtime-metrics", 10000, "runtime/metrics polling interval in milliseconds for go_* gauges (0 disables)")

		cacheEntries = flag.Int("cache-entries", 0, "query-result cache entry cap; the cache is on when this or -cache-bytes is > 0 (0 with -cache-bytes set uses the 4096-entry default)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "query-result cache byte cap; the cache is on when this or -cache-entries is > 0 (0 with -cache-entries set uses the 64 MiB default)")

		metricName = flag.String("metric", "", "default search metric for requests that omit \"metric\": d (exact alignment distance) or dtw (indexed dynamic time warping); empty keeps d")
		dtwWindow  = flag.Int("dtw-window", -1, "default Sakoe–Chiba band half-width for requests that omit \"dtwWindow\" (-1 = unconstrained)")

		durableDir  = flag.String("durable", "", "durability directory: WAL-backed commits, MVCC snapshot reads, crash recovery (per-shard subdirectories when sharded)")
		fsync       = flag.Bool("fsync", true, "with -durable, fsync the WAL before acknowledging a commit (false risks the last group-commit window on a crash)")
		groupWindow = flag.Duration("group-commit-window", 0, "with -durable, how long a commit waits for others to share its fsync (0 batches only what is already queued)")
		ckptEvery   = flag.Int("checkpoint-every", 4096, "with -durable, fold the delta into the base index every N committed records (0 = never automatically)")

		quantized = flag.Bool("quantized-mbr", false, "accepted, no effect: range search refines only the pairs the index hit, which always pass the float32 prefilter (queued for removal)")
	)
	flag.Parse()
	if *shards < 1 {
		log.Fatalf("-shards %d: shard count must be >= 1", *shards)
	}
	// Validate the default metric at startup so a typo fails here rather
	// than on every request.
	if _, err := core.ParseMetric(*metricName, *dtwWindow); err != nil {
		log.Fatalf("-metric: %v", err)
	}

	db, err := openDB(*storeDir, *dataPath, *dim, *shards, txnConfig{
		dir:             *durableDir,
		noFsync:         !*fsync,
		groupWindow:     *groupWindow,
		checkpointEvery: *ckptEvery,
		quantized:       *quantized,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *cacheEntries > 0 || *cacheBytes > 0 {
		db.SetCache(cache.New(cache.Config{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes}))
	}

	fmt.Fprintf(os.Stderr, "mdsserve: %d sequences (%d MBRs) over %d shard(s) on %s\n",
		db.Len(), db.NumMBRs(), db.Shards(), *addr)

	reg := obs.NewRegistry()
	// ShardedDB.SetMetrics (via server.WithMetrics) records scatter-level
	// metrics only; durable per-shard committers register their WAL and
	// snapshot instruments here, one labeled series per shard.
	if sdb, ok := db.(*shard.ShardedDB); ok {
		for i := 0; i < sdb.Shards(); i++ {
			if tdb, ok := sdb.Shard(i).(*txn.DB); ok {
				tdb.SetMetricsShard(reg, i)
			}
		}
	}
	if qc := db.QueryCache(); qc != nil {
		name := "core"
		if db.Shards() > 1 {
			name = "front"
		}
		qc.SetMetrics(cache.NewMetrics(reg, name))
	}
	var collector *obs.RuntimeCollector
	if *runtimeMS > 0 {
		collector = obs.NewRuntimeCollector(reg)
		collector.Start(time.Duration(*runtimeMS) * time.Millisecond)
		defer collector.Stop()
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	opts := []server.Option{
		server.WithMetrics(reg),
		server.WithLogger(logger),
		server.WithSlowQueryThreshold(time.Duration(*slowMS) * time.Millisecond),
		server.WithPprof(*pprofOn),
	}
	if *metricName != "" || *dtwWindow != -1 {
		opts = append(opts, server.WithDefaultMetric(*metricName, *dtwWindow))
	}
	if *traceRetain > 0 {
		opts = append(opts, server.WithRecorder(obs.NewRecorder(obs.RecorderConfig{PerBucket: *traceRetain})))
	}
	handler := server.New(db, opts...)
	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		db.Close()
		log.Fatal(err)
	case <-ctx.Done():
		// Drain in-flight requests, then close the database so the
		// pager/WAL flushes instead of dying mid-write.
		fmt.Fprintln(os.Stderr, "mdsserve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
		}
		if err := db.Close(); err != nil {
			log.Fatalf("closing database: %v", err)
		}
	}
}

// txnConfig carries the -durable flag family into openDB, plus
// -quantized-mbr, which the store and dataset paths pass on.
type txnConfig struct {
	dir             string
	noFsync         bool
	groupWindow     time.Duration
	checkpointEvery int
	quantized       bool
}

// openDB builds the serving database from the configured source. A
// durability directory wins: it opens (or creates) WAL-backed
// transactional nodes, replaying any commits a previous process
// acknowledged before dying. Otherwise a store directory is loaded with
// its indexes in memory — packed from the stored leaves, so the start
// costs the segment files' read and checksum and writes nothing — and an
// optional dataset is bulk-loaded into a fresh database with the
// requested shard count.
func openDB(storeDir, dataPath string, dim, shards int, tc txnConfig) (shard.DB, error) {
	if tc.dir != "" {
		if storeDir != "" {
			return nil, errors.New("-durable and -store are exclusive: a durability directory is the store")
		}
		return openDurable(dataPath, dim, shards, tc)
	}
	if storeDir != "" {
		return store.LoadShardedWith(storeDir, store.LoadOptions{Quantized: tc.quantized})
	}
	if dataPath != "" {
		seqs, err := readData(dataPath)
		if err != nil {
			return nil, err
		}
		db, err := shard.New(core.Options{Dim: seqs[0].Dim(), QuantizedMBR: tc.quantized}, shards)
		if err != nil {
			return nil, err
		}
		if _, err := db.AddAll(seqs); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}
	return shard.New(core.Options{Dim: dim, QuantizedMBR: tc.quantized}, shards)
}

// openDurable opens one transactional node per shard under the
// durability directory (the directory itself for a single shard,
// shard<i> subdirectories otherwise) and, for a sharded deployment,
// assembles the scatter-gather router over them. A -data corpus is
// loaded only into a store that is still empty, so restarting with the
// same command line does not re-ingest: a store that holds data takes the
// dimension from the file's header and parses none of its body (a body
// corrupt past a valid header fails only a start that would load it). A
// fresh directory parses the whole file before any node is created, so a
// bad file leaves nothing behind. The load commits as one WAL record,
// which no -checkpoint-every threshold would notice, so each node is
// checkpointed right after it: the corpus is served from the indexed base
// from the first query on, not scanned from the delta.
//
// Unlike a store, a durability directory records no shard count, and one
// written under another count would open without complaint — serving the
// shards that happen to exist, or an empty node beside them — so the
// layout on disk is checked against shards before any node is opened.
func openDurable(dataPath string, dim, shards int, tc txnConfig) (shard.DB, error) {
	onDisk, err := checkDurableLayout(tc.dir, shards)
	if err != nil {
		return nil, err
	}
	var seqs []*core.Sequence
	if dataPath != "" {
		if onDisk == 0 {
			seqs, err = readData(dataPath)
			if err == nil {
				dim = seqs[0].Dim()
			}
		} else {
			dim, err = readDataDim(dataPath)
		}
		if err != nil {
			return nil, err
		}
	}
	db, nodes, err := openNodes(dim, shards, tc)
	if err != nil {
		return nil, err
	}
	if dataPath == "" || db.Len() > 0 {
		return db, nil
	}
	if seqs == nil {
		if seqs, err = readData(dataPath); err != nil {
			db.Close()
			return nil, err
		}
	}
	if _, err := db.AddAll(seqs); err != nil {
		db.Close()
		return nil, err
	}
	for i, n := range nodes {
		if err := n.Checkpoint(); err != nil {
			db.Close()
			return nil, fmt.Errorf("checkpointing durable shard %d: %w", i, err)
		}
	}
	return db, nil
}

// openNodes opens the transactional node of each shard: for one shard the
// node itself is the database, for more the router over them.
func openNodes(dim, shards int, tc txnConfig) (shard.DB, []*txn.DB, error) {
	open := func(sub string) (*txn.DB, error) {
		return txn.Open(txn.Options{
			Dir:             sub,
			Dim:             dim,
			NoFsync:         tc.noFsync,
			GroupWindow:     tc.groupWindow,
			CheckpointEvery: tc.checkpointEvery,
		})
	}
	if shards == 1 {
		db, err := open(tc.dir)
		if err != nil {
			return nil, nil, err
		}
		return db, []*txn.DB{db}, nil
	}
	nodes := make([]shard.Node, shards)
	tdbs := make([]*txn.DB, shards)
	for i := range nodes {
		db, err := open(filepath.Join(tc.dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			for _, n := range nodes[:i] {
				n.Close()
			}
			return nil, nil, fmt.Errorf("opening durable shard %d: %w", i, err)
		}
		nodes[i], tdbs[i] = db, db
	}
	sdb, err := shard.NewWithNodes(nodes)
	if err != nil {
		for _, n := range nodes {
			n.Close()
		}
		return nil, nil, err
	}
	return sdb, tdbs, nil
}

// checkDurableLayout refuses a durability directory written under a shard
// count other than shards: one shard keeps its node's files at the top
// level, N keep them under shard0 … shard<N-1>. A directory that is
// absent, or holds neither, is new and fits any count. It returns the
// count on disk, 0 for a new directory.
func checkDurableLayout(dir string, shards int) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	onDisk := 0
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), "shard"); ok && e.IsDir() {
			if _, err := strconv.Atoi(rest); err == nil {
				onDisk++
			}
		}
	}
	if txn.Exists(dir) {
		if onDisk > 0 {
			return 0, fmt.Errorf("-durable %s holds a single node's files beside %d shard directories (it has been opened under both counts); move aside whichever is not the corpus", dir, onDisk)
		}
		onDisk = 1
	}
	if onDisk != 0 && onDisk != shards {
		return 0, fmt.Errorf("-durable %s was written with %d shard(s) and -shards is %d: restart with -shards %d (a durability directory cannot be re-sharded in place)", dir, onDisk, shards, onDisk)
	}
	return onDisk, nil
}

// readData loads an mdsgen dataset (binary or CSV).
func readData(dataPath string) ([]*core.Sequence, error) {
	read := seqio.ReadFile
	if strings.HasSuffix(dataPath, ".csv") {
		read = seqio.ReadCSVFile
	}
	return read(dataPath)
}

// readDataDim reads the dimension of an mdsgen dataset from its header
// alone: the binary format's first 14 bytes, or a CSV file's rows up to
// its first data row.
func readDataDim(dataPath string) (int, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if strings.HasSuffix(dataPath, ".csv") {
		return seqio.ReadCSVDim(f)
	}
	return seqio.ReadDim(f)
}
