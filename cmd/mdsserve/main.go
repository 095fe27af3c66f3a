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
// Writes: every shard is a transactional node (internal/txn). Reads run
// on MVCC snapshots that never block on writers; a commit lands in an
// in-memory delta that queries scan beside the indexed base, and
// -checkpoint-every bounds that scan by folding the delta into a base
// rebuilt beside the old one. GET /txnz reports commit, checkpoint, and
// snapshot statistics. Without -durable no write survives a restart.
//
// Durability (-durable): every write is also committed through a
// write-ahead log and acknowledged only after fsync (disable with
// -fsync=false); concurrent writers share fsyncs within
// -group-commit-window; a crash or restart replays the log, restoring
// exactly the acknowledged commits under their original ids. A fold also
// writes a base snapshot once the log has outgrown the last one, so a
// restart replays at most about a snapshot's worth of log. With -shards N
// each shard gets its own log and committer under <dir>/shard<i>; a
// directory written under one shard count is refused under another. -data
// seeds only an empty directory: a restart onto one that holds data reads
// just the file's header, for its dimension. See OPERATIONS.md for the
// recovery runbook.
//
// A store directory carries its own shard count; -shards applies when
// starting empty or from -data. A store is served read-only: its trees
// are packed in memory from the leaf grouping the segment file stores,
// writes land in the in-memory delta and in the bases its folds build,
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
	"runtime"
	"strconv"
	"strings"
	"sync"
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
		ckptEvery   = flag.Int("checkpoint-every", 4096, "fold each node's delta of committed writes into its base index every N commits (0 = never automatically)")

		_ = flag.Bool("quantized-mbr", false, "accepted, no effect: range search refines only the pairs the index hit, which always pass the float32 prefilter (queued for removal)")
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

	db, nodes, err := openDB(*storeDir, *dataPath, *dim, *shards, txnConfig{
		dir:             *durableDir,
		noFsync:         !*fsync,
		groupWindow:     *groupWindow,
		checkpointEvery: *ckptEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *cacheEntries > 0 || *cacheBytes > 0 {
		db.SetCache(cache.New(cache.Config{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes}))
	}

	fmt.Fprintf(os.Stderr, "mdsserve: %d sequences (%d MBRs) over %d shard(s) on %s\n",
		db.Len(), db.NumMBRs(), db.Shards(), *addr)

	reg := newRegistry(db, nodes)
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

// newRegistry makes the server's metrics registry and wires into it what
// server.WithMetrics does not: ShardedDB.SetMetrics (through that option)
// records scatter-level metrics only, so each shard's committer registers
// its WAL and snapshot instruments here, one labeled series per shard, and
// the query cache its own. A single node is wired whole by the option.
func newRegistry(db shard.DB, nodes []*txn.DB) *obs.Registry {
	reg := obs.NewRegistry()
	if len(nodes) > 1 {
		for i, n := range nodes {
			n.SetMetricsShard(reg, i)
		}
	}
	if qc := db.QueryCache(); qc != nil {
		name := "core"
		if db.Shards() > 1 {
			name = "front"
		}
		qc.SetMetrics(cache.NewMetrics(reg, name))
	}
	return reg
}

// txnConfig carries the -durable flag family and -checkpoint-every into
// openDB.
type txnConfig struct {
	dir             string
	noFsync         bool
	groupWindow     time.Duration
	checkpointEvery int
}

// openDB builds the serving database from the configured source, one
// transactional node per shard, and returns it with its nodes. A
// durability directory opens WAL-backed nodes (openDurable). Otherwise
// each node is a log-less txn.Wrap over its shard's base: a store
// directory's, its index packed in memory from the stored leaves (nothing
// under the directory is written), or an empty database, which a -data
// corpus is then ingested into.
func openDB(storeDir, dataPath string, dim, shards int, tc txnConfig) (shard.DB, []*txn.DB, error) {
	if tc.dir != "" {
		if storeDir != "" {
			return nil, nil, errors.New("-durable and -store are exclusive: a durability directory is the store")
		}
		return openDurable(dataPath, dim, shards, tc)
	}
	var bases []*core.Database
	var seqs []*core.Sequence
	if storeDir != "" {
		sdb, err := store.LoadShardedWith(storeDir, store.LoadOptions{})
		if err != nil {
			return nil, nil, err
		}
		for i := range sdb.Shards() {
			bases = append(bases, sdb.Shard(i).(*core.Database))
		}
	} else {
		if dataPath != "" {
			var err error
			if seqs, err = readData(dataPath); err != nil {
				return nil, nil, err
			}
			dim = seqs[0].Dim()
		}
		for range shards {
			// An in-memory database fails only on its dimension, so at
			// the first shard, with nothing to close.
			base, err := core.NewDatabase(core.Options{Dim: dim})
			if err != nil {
				return nil, nil, err
			}
			bases = append(bases, base)
		}
	}
	nodes := make([]*txn.DB, len(bases))
	for i, base := range bases {
		// Wrap refuses only a nil base or a Dir.
		nodes[i], _ = txn.Wrap(base, txn.Options{CheckpointEvery: tc.checkpointEvery})
	}
	return serve(nodes, seqs)
}

// openDurable opens one transactional node per shard under the
// durability directory (the directory itself for a single shard,
// shard<i> subdirectories otherwise). A -data corpus is loaded only into
// a store that is still empty, so restarting with the same command line
// does not re-ingest: a store that holds data takes the dimension from
// the file's header and parses none of its body (a body corrupt past a
// valid header fails only a start that would load it). A fresh directory
// parses the whole file before any node is created, so a bad file leaves
// nothing behind.
//
// Unlike a store, a durability directory records no shard count, and one
// written under another count would open without complaint — serving the
// shards that happen to exist, or an empty node beside them — so the
// layout on disk is checked against shards before any node is opened.
func openDurable(dataPath string, dim, shards int, tc txnConfig) (shard.DB, []*txn.DB, error) {
	onDisk, err := checkDurableLayout(tc.dir, shards)
	if err != nil {
		return nil, nil, err
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
			return nil, nil, err
		}
	}
	nodes := make([]*txn.DB, shards)
	live := 0
	for i := range nodes {
		dir := tc.dir
		if shards > 1 {
			dir = filepath.Join(tc.dir, fmt.Sprintf("shard%d", i))
		}
		nodes[i], err = txn.Open(txn.Options{
			Dir:             dir,
			Dim:             dim,
			NoFsync:         tc.noFsync,
			GroupWindow:     tc.groupWindow,
			CheckpointEvery: tc.checkpointEvery,
		})
		if err != nil {
			closeNodes(nodes[:i])
			if shards > 1 {
				err = fmt.Errorf("opening durable shard %d: %w", i, err)
			}
			return nil, nil, err
		}
		live += nodes[i].Len()
	}
	if live > 0 {
		seqs = nil
	} else if dataPath != "" && seqs == nil {
		if seqs, err = readData(dataPath); err != nil {
			closeNodes(nodes)
			return nil, nil, err
		}
	}
	return serve(nodes, seqs)
}

// serve assembles the database over the nodes — the node itself for one
// shard, the scatter-gather router over them for more — and ingests seqs
// into it. The ingest commits as one record per node, which no
// -checkpoint-every threshold notices, so every node folds right after
// it, the nodes side by side: the corpus is served from the indexed base
// from the first query on, not scanned from the delta. On an error every
// node is closed.
func serve(nodes []*txn.DB, seqs []*core.Sequence) (shard.DB, []*txn.DB, error) {
	var db shard.DB = nodes[0]
	if len(nodes) > 1 {
		sns := make([]shard.Node, len(nodes))
		for i, n := range nodes {
			sns[i] = n
		}
		sdb, err := shard.NewWithNodes(sns)
		if err != nil {
			closeNodes(nodes)
			return nil, nil, err
		}
		db = sdb
	}
	if len(seqs) == 0 {
		return db, nodes, nil
	}
	_, err := db.AddAll(seqs)
	if err == nil {
		// A fold is CPU-bound: more at once than there are cores would
		// only hold more rebuilds in memory together.
		errs := make([]error, len(nodes))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[i] = n.Checkpoint()
			}()
		}
		wg.Wait()
		err = errors.Join(errs...)
	}
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, nodes, nil
}

// closeNodes closes the nodes of an open that failed part way.
func closeNodes(nodes []*txn.DB) {
	for _, n := range nodes {
		n.Close()
	}
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
