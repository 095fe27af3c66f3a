package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seqio"
	"repro/internal/shard"
	"repro/internal/store"
)

// Query implements mdsquery: load a dataset, index it, run one query.
func Query(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdsquery", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		dataPath = fs.String("data", "", "dataset file from mdsgen (.csv reads CSV); required unless -store is set")
		storeDir = fs.String("store", "", "store directory to open instead of indexing -data (from Save/SaveSharded/Build)")
		saveDir  = fs.String("save-store", "", "persist the loaded corpus to this store directory (with -store, rewrites an old-format store in the current format)")
		queryIdx = fs.Int("query", 0, "index of the sequence to draw the query from")
		from     = fs.Int("from", 0, "query start offset within that sequence")
		qlen     = fs.Int("len", 0, "query length (0 = to the end)")
		eps      = fs.Float64("eps", 0.1, "similarity threshold ε")
		baseline = fs.Bool("baseline", false, "also run the sequential-scan baseline and compare")
		topK     = fs.Int("top", 10, "print at most this many matches")
		knn      = fs.Int("knn", 0, "additionally report the k nearest sequences by exact distance")
		dtw      = fs.Bool("dtw", false, "re-rank matches by dynamic time warping distance")
		metric   = fs.String("metric", "d", "search metric: d (exact alignment distance) or dtw (indexed dynamic time warping)")
		dtwWin   = fs.Int("dtw-window", -1, "Sakoe–Chiba band half-width for DTW (-1 = unconstrained); applies to -metric dtw and -dtw re-ranking")
		explain  = fs.Bool("explain", false, "print per-sequence pruning decisions")
		shards   = fs.Int("shards", 1, "hash-partition the corpus over this many shards (scatter-gather search)")
		metrics  = fs.Bool("metrics", false, "record into a metrics registry and print its Prometheus dump after the run")
		trace    = fs.Bool("trace", false, "trace the query and print its span tree (phases, attributes, per-shard spans) after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" && *storeDir == "" {
		fs.Usage()
		return fmt.Errorf("missing -data or -store")
	}
	if *dataPath != "" && *storeDir != "" {
		return fmt.Errorf("-data and -store are exclusive")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d: shard count must be >= 1", *shards)
	}

	var db shard.DB
	var seqs []*core.Sequence
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	if *storeDir != "" {
		t0 := time.Now()
		// Open with the directory's own layout, so -save-store keeps it.
		var err error
		var lo store.LoadOptions
		if store.IsSharded(*storeDir) {
			db, err = store.LoadShardedWith(*storeDir, lo)
		} else {
			db, err = store.LoadWith(*storeDir, lo)
		}
		if err != nil {
			return err
		}
		if reg != nil {
			db.SetMetrics(reg)
		}
		seqs = db.Sequences()
		fmt.Fprintf(stdout, "opened store %s: %d sequences (%d MBRs, R*-tree height %d, %d shard(s)) in %v\n",
			*storeDir, db.Len(), db.NumMBRs(), db.IndexHeight(), db.Shards(), time.Since(t0).Round(time.Millisecond))
	} else {
		read := seqio.ReadFile
		if strings.HasSuffix(*dataPath, ".csv") {
			read = seqio.ReadCSVFile
		}
		var err error
		seqs, err = read(*dataPath)
		if err != nil {
			return err
		}
		if *shards > 1 {
			db, err = shard.New(core.Options{Dim: seqs[0].Dim()}, *shards)
		} else {
			db, err = core.NewDatabase(core.Options{Dim: seqs[0].Dim()})
		}
		if err != nil {
			return err
		}
		if reg != nil {
			db.SetMetrics(reg)
		}
		t0 := time.Now()
		if _, err := db.AddAll(seqs); err != nil {
			db.Close()
			return err
		}
		fmt.Fprintf(stdout, "indexed %d sequences (%d MBRs, R*-tree height %d, %d shard(s)) in %v\n",
			db.Len(), db.NumMBRs(), db.IndexHeight(), db.Shards(), time.Since(t0).Round(time.Millisecond))
	}
	defer db.Close()

	if *saveDir != "" {
		t0 := time.Now()
		var err error
		if sdb, ok := db.(*shard.ShardedDB); ok {
			err = store.SaveSharded(sdb, *saveDir)
		} else {
			err = store.Save(db.(*core.Database), *saveDir)
		}
		if err != nil {
			return fmt.Errorf("-save-store: %w", err)
		}
		fmt.Fprintf(stdout, "saved store %s in %v\n", *saveDir, time.Since(t0).Round(time.Millisecond))
	}

	if len(seqs) == 0 {
		return fmt.Errorf("empty corpus")
	}
	if *queryIdx < 0 || *queryIdx >= len(seqs) {
		return fmt.Errorf("query index %d outside dataset of %d sequences", *queryIdx, len(seqs))
	}
	src := seqs[*queryIdx]
	if *from < 0 || *from >= src.Len() {
		return fmt.Errorf("offset %d outside sequence of %d points", *from, src.Len())
	}
	end := src.Len()
	if *qlen > 0 && *from+*qlen < end {
		end = *from + *qlen
	}
	q := &core.Sequence{Label: "query", Points: src.Slice(*from, end)}
	fmt.Fprintf(stdout, "query: %d points from %s[%d:%d], eps=%.3f\n", q.Len(), src.Label, *from, end, *eps)

	mt, err := core.ParseMetric(*metric, *dtwWin)
	if err != nil {
		return err
	}
	if *dtwWin < -1 {
		return fmt.Errorf("-dtw-window %d: use -1 for unconstrained or a nonnegative half-width", *dtwWin)
	}

	ctx := context.Background()
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	if _, ok := mt.(core.MetricDTW); ok {
		if err := queryMetric(ctx, stdout, db, q, *eps, mt, *topK, *knn, *baseline); err != nil {
			return err
		}
		return queryTrailer(stdout, tr, reg)
	}
	res, err := db.Do(ctx, core.Query{Seq: q, Eps: *eps})
	if err != nil {
		return err
	}
	matches, stats := res.Matches, res.Stats
	fmt.Fprintf(stdout, "phases: partition %v (%d MBRs) | Dmbr %v (%d candidates) | Dnorm %v (%d matches)\n",
		stats.Phase1.Round(time.Microsecond), stats.QueryMBRs,
		stats.Phase2.Round(time.Microsecond), stats.CandidatesDmbr,
		stats.Phase3.Round(time.Microsecond), stats.MatchesDnorm)
	if db.Shards() > 1 {
		// Wall is per-phase max across shards; CPU sums the per-shard work.
		fmt.Fprintf(stdout, "scatter: wall %v | cpu %v over %d shards\n",
			stats.Total().Round(time.Microsecond), stats.CPUTime.Round(time.Microsecond), db.Shards())
	}

	if *dtw {
		var unaligned int
		matches, unaligned = core.RefineDTWChecked(q, matches, *dtwWin)
		fmt.Fprintln(stdout, "(matches re-ranked by DTW)")
		if unaligned > 0 {
			fmt.Fprintf(stdout, "WARNING: %d match(es) unranked — DTW window %d admits no alignment (narrower than the length difference); they keep input order at the tail\n",
				unaligned, *dtwWin)
		}
	}
	for i, m := range matches {
		if i >= *topK {
			fmt.Fprintf(stdout, "... and %d more\n", len(matches)-*topK)
			break
		}
		fmt.Fprintf(stdout, "  #%d %-14s minDnorm=%.4f  intervals=%v\n",
			m.SeqID, m.Seq.Label, m.MinDnorm, m.Interval.String())
	}

	if *knn > 0 {
		nn, err := db.Do(ctx, core.Query{Seq: q, Kind: core.KNN, K: *knn})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%d nearest sequences by exact distance D:\n", len(nn.Matches))
		for _, r := range nn.Matches {
			fmt.Fprintf(stdout, "  #%d %-14s D=%.4f at offset %d\n", r.SeqID, r.Seq.Label, r.Dist, r.Offset)
		}
	}

	if *explain {
		ex, err := db.Explain(q, *eps)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if _, err := ex.WriteTo(stdout); err != nil {
			return err
		}
	}

	if *baseline {
		t1 := time.Now()
		scan, err := db.Do(ctx, core.Query{Seq: q, Kind: core.Scan, Eps: *eps})
		if err != nil {
			return err
		}
		exact := scan.Matches
		scanTime := time.Since(t1)
		fmt.Fprintf(stdout, "sequential scan: %d relevant in %v (index search took %v; %.1fx)\n",
			len(exact), scanTime.Round(time.Microsecond), stats.Total().Round(time.Microsecond),
			float64(scanTime)/float64(stats.Total()))
		inMatches := make(map[uint32]bool, len(matches))
		for _, m := range matches {
			inMatches[m.SeqID] = true
		}
		for _, r := range exact {
			if !inMatches[r.SeqID] {
				fmt.Fprintf(stdout, "  WARNING: false dismissal of sequence %d (D=%.4f)\n", r.SeqID, r.Dist)
			}
		}
	}

	return queryTrailer(stdout, tr, reg)
}

// queryMetric runs the exact-metric query path (-metric dtw): the
// indexed metric range search, optional metric kNN, and the exhaustive
// metric-scan baseline with a false-dismissal check.
func queryMetric(ctx context.Context, stdout io.Writer, db shard.DB, q *core.Sequence,
	eps float64, mt core.Metric, topK, knn int, baseline bool) error {
	res, err := db.Do(ctx, core.Query{Seq: q, Eps: eps, Metric: mt})
	if err != nil {
		return err
	}
	matches, stats := res.Matches, res.Stats
	fmt.Fprintf(stdout, "metric %s: envelope %v | filter %v (%d candidates) | refine %v (env-pruned %d, LB_Keogh-pruned %d, DTW evals %d, %d matches)\n",
		mt.Name(),
		stats.Phase1.Round(time.Microsecond),
		stats.Phase2.Round(time.Microsecond), stats.CandidatesDmbr,
		stats.Phase3.Round(time.Microsecond),
		stats.DTWEnvPruned, stats.DTWKeoghPruned, stats.DTWEvals, len(matches))
	for i, m := range matches {
		if i >= topK {
			fmt.Fprintf(stdout, "... and %d more\n", len(matches)-topK)
			break
		}
		fmt.Fprintf(stdout, "  #%d %-14s %s=%.4f\n", m.SeqID, m.Seq.Label, mt.Name(), m.Dist)
	}

	if knn > 0 {
		nn, err := db.Do(ctx, core.Query{Seq: q, Kind: core.KNN, K: knn, Metric: mt})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%d nearest sequences by exact %s distance:\n", len(nn.Matches), mt.Name())
		for _, r := range nn.Matches {
			fmt.Fprintf(stdout, "  #%d %-14s %s=%.4f\n", r.SeqID, r.Seq.Label, mt.Name(), r.Dist)
		}
	}

	if baseline {
		t1 := time.Now()
		scan, err := db.Do(ctx, core.Query{Seq: q, Kind: core.Scan, Eps: eps, Metric: mt})
		if err != nil {
			return err
		}
		exact := scan.Matches
		scanTime := time.Since(t1)
		fmt.Fprintf(stdout, "sequential %s scan: %d relevant in %v (index search took %v; %.1fx)\n",
			mt.Name(), len(exact), scanTime.Round(time.Microsecond), stats.Total().Round(time.Microsecond),
			float64(scanTime)/float64(stats.Total()))
		inMatches := make(map[uint32]bool, len(matches))
		for _, m := range matches {
			inMatches[m.SeqID] = true
		}
		for _, r := range exact {
			if !inMatches[r.SeqID] {
				fmt.Fprintf(stdout, "  WARNING: false dismissal of sequence %d (%s=%.4f)\n", r.SeqID, mt.Name(), r.Dist)
			}
		}
	}
	return nil
}

// queryTrailer prints the optional trace tree and metrics dump.
func queryTrailer(stdout io.Writer, tr *obs.Trace, reg *obs.Registry) error {
	if tr != nil {
		fmt.Fprintln(stdout, "\n# trace (span tree)")
		tr.Snapshot().WriteTree(stdout)
	}

	if reg != nil {
		fmt.Fprintln(stdout, "\n# metrics (Prometheus text format)")
		if err := reg.WritePrometheus(stdout); err != nil {
			return err
		}
	}
	return nil
}
