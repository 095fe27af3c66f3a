package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/cache"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to figure.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd computes the metrics a user of the server would see, all from
// the closed loop and all at the reference machine's speed. Throughput and
// the median are computed in `windows` equal windows, each at its own
// speed, and reported as the median window with the min–max window spread
// and the sample count beside it. The p99 is over the whole phase — a
// window has too few samples beyond its own p99 — at the phase's speed.
func (sv *served) endToEnd(w io.Writer) (metricSet, map[string]float64) {
	ms := metricSet{}
	thr := windowStat(sv.closed, sv.meter, anyOp, perSecond, scaleRate)
	p50 := windowStat(sv.closed, sv.meter, anyOp, pctl(0.50), scaleTime)
	speed := sv.closedSpeed()
	lats := make([]time.Duration, 0, len(sv.closed.ops))
	for _, op := range sv.closed.ops {
		if op.ok {
			lats = append(lats, op.lat)
		}
	}
	slices.Sort(lats)
	p99 := percentile(lats, 0.99) * speed
	cpu := 1000 * sv.cpuS / float64(max(sv.closed.okCount(), 1)) * speed

	ms.set("setup_s", "s", sv.setupMedian())
	ms.set("throughput_rps", "1/s", thr.median)
	ms.set("closed_p50_ms", "ms", p50.median)
	ms.set("closed_p99_ms", "ms", p99)
	ms.set("cpu_ms_per_op", "ms", cpu)
	ms.set("rss_peak_mb", "MB", sv.rssMB)

	n := len(sv.setups)
	fmt.Fprintf(w, "  machine speed over the closed loop: %.3f of the reference; timings below are at reference speed\n", speed)
	fmt.Fprintf(w, "  setup_s         %.4g (cold starts %.4g–%.4g, n=%d; as measured)\n", sv.setupMedian(), sv.setups[0], sv.setups[n-1], n)
	fmt.Fprintf(w, "  throughput_rps  %v\n", thr)
	fmt.Fprintf(w, "  closed_p50_ms   %v\n", p50)
	fmt.Fprintf(w, "  closed_p99_ms   %.4g (whole phase, n=%d)\n", p99, len(lats))
	fmt.Fprintf(w, "  cpu_ms_per_op   %.4g\n", cpu)
	fmt.Fprintf(w, "  rss_peak_mb     %.4g\n", sv.rssMB)
	spreads := map[string]float64{
		"setup_s":        (sv.setups[n-1] - sv.setups[0]) / sv.setupMedian(),
		"throughput_rps": thr.spread(),
		"closed_p50_ms":  p50.spread(),
	}
	return ms, spreads
}

// closedSpeed is the machine's mean speed over the closed loop.
func (sv *served) closedSpeed() float64 {
	return sv.meter.between(sv.closed.start, sv.closed.start.Add(sv.closed.dur))
}

// lagP99 is the 99th percentile of how late the generator itself sent
// open-loop requests, in ms.
func (sv *served) lagP99() float64 {
	lags := make([]time.Duration, 0, len(sv.open.ops))
	for _, op := range sv.open.ops {
		lags = append(lags, op.lag)
	}
	slices.Sort(lags)
	return percentile(lags, 0.99)
}

// counterLayers derives the per-layer rows that come from the real server:
// /metrics deltas over the closed loop, write latencies from the open
// loop, disk and recovery figures from teardown.
func (sv *served) counterLayers(ms metricSet) {
	b, a := sv.before, sv.after
	us := func(seconds float64) float64 { return seconds * 1e6 }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	searches := delta(b, a, "mdseq_search_total")
	perSearch := func(series string) float64 { return frac(delta(b, a, series), searches) }

	// core: the three phases and the exact work counts that explain them.
	ms.set("core.partition_us", "us", us(histMean(b, a, "mdseq_search_phase_seconds", `{phase="partition"}`)))
	ms.set("core.filter_us", "us", us(histMean(b, a, "mdseq_search_phase_seconds", `{phase="filter"}`)))
	ms.set("core.refine_us", "us", us(histMean(b, a, "mdseq_search_phase_seconds", `{phase="refine"}`)))
	ms.set("core.candidates_per_query", "count", perSearch("mdseq_search_candidates_dmbr_total"))
	ms.set("core.matches_per_query", "count", perSearch("mdseq_search_matches_total"))
	ms.set("core.index_entries_per_query", "count", perSearch("mdseq_search_index_entries_total"))
	ms.set("core.dnorm_evals_per_query", "count", perSearch("mdseq_search_dnorm_evals_total"))
	seen := delta(b, a, "mdseq_search_sequences_seen_total")
	cands := delta(b, a, "mdseq_search_candidates_dmbr_total")
	ms.set("core.prune_dmbr_frac", "ratio", frac(delta(b, a, "mdseq_search_pruned_dmbr_total"), seen))
	ms.set("core.prune_dnorm_frac", "ratio", frac(delta(b, a, "mdseq_search_candidates_pruned_total"), cands))
	ms.set("core.useful_frac", "ratio", frac(delta(b, a, "mdseq_search_matches_total"), cands))

	knn := delta(b, a, "mdseq_knn_total")
	ms.set("core.knn_us", "us", us(histMean(b, a, "mdseq_knn_seconds", "")))
	ms.set("core.knn_refined_per_query", "count", frac(delta(b, a, "mdseq_knn_refined_total"), knn))
	ms.set("core.knn_pruned_frac", "ratio", frac(delta(b, a, "mdseq_knn_pruned_total"),
		delta(b, a, "mdseq_knn_pruned_total")+delta(b, a, "mdseq_knn_refined_total")))
	dtwC := delta(b, a, "mdseq_dtw_candidates_total")
	dtwQ := delta(b, a, "mdseq_dtw_search_total") + delta(b, a, "mdseq_dtw_knn_total")
	ms.set("core.dtw_env_pruned_frac", "ratio", frac(delta(b, a, "mdseq_dtw_env_pruned_total"), dtwC))
	ms.set("core.dtw_keogh_pruned_frac", "ratio", frac(delta(b, a, "mdseq_dtw_keogh_pruned_total"), dtwC))
	ms.set("core.dtw_evals_per_query", "count", frac(delta(b, a, "mdseq_dtw_evals_total"), dtwQ))

	// cache
	hits, misses := delta(b, a, "mdseq_cache_hits_total"), delta(b, a, "mdseq_cache_misses_total")
	notes := delta(b, a, "mdseq_cache_write_notifications_total")
	ms.set("cache.hit_ratio", "ratio", frac(hits, hits+misses))
	ms.set("cache.evictions", "count", delta(b, a, "mdseq_cache_evictions_total"))
	ms.set("cache.invalidations_per_write", "count", frac(delta(b, a, "mdseq_cache_invalidations_total"), notes))
	// A sweep visits or skips each of the cache's lock shards once, and
	// mdsserve builds its cache with the default shard count.
	ms.set("cache.sweep_skip_frac", "ratio", frac(delta(b, a, "mdseq_cache_sweep_skips_total"), notes*cache.DefaultShards))

	// shard
	ms.set("shard.straggler_gap_us", "us", us(histMean(b, a, "mdseq_shard_straggler_gap_seconds", "")))
	seeded, unseeded := delta(b, a, "mdseq_shard_knn_seeded_total"), delta(b, a, "mdseq_shard_knn_unseeded_total")
	ms.set("shard.knn_seeded_frac", "ratio", frac(seeded, seeded+unseeded))

	// txn
	commits := delta(b, a, "mdseq_wal_commit_seconds_count")
	ms.set("txn.commit_us", "us", us(histMean(b, a, "mdseq_wal_commit_seconds", "")))
	ms.set("txn.fsyncs_per_commit", "ratio", frac(delta(b, a, "mdseq_wal_fsyncs_total"), commits))
	ms.set("txn.group_size_mean", "count", histMean(b, a, "mdseq_wal_group_size", ""))
	ms.set("txn.wal_bytes_per_user_byte", "ratio", frac(delta(b, a, "mdseq_wal_bytes_total"), float64(sv.closedUserB)))
	ms.set("txn.checkpoints", "count", delta(b, a, "mdseq_wal_checkpoints_total"))
	ms.set("txn.checkpoint_s_mean", "s", histMean(b, a, "mdseq_wal_checkpoint_seconds", ""))
	ms.set("txn.delta_adds_max", "count", float64(sv.deltaMax))
	ms.set("txn.write_p50_ms", "ms", sv.openPctl(writeOp, 0.50).median)
	ms.set("txn.write_p99_ms", "ms", sv.openPctl(writeOp, 0.99).median)
	if sv.crash != nil {
		ms.set("txn.recovery_s", "s", sv.crash.recoveryS)
		ms.set("txn.recovery_replayed", "count", float64(sv.crash.replayed))
	} else {
		ms.set("txn.recovery_s", "s", 0)
		ms.set("txn.recovery_replayed", "count", 0)
	}

	// store
	ms.set("store.disk_amp", "ratio", frac(float64(sv.diskB), float64(sv.liveB)))

	// The open loop, as measured: latency from each request's due time at
	// the workload's fixed rate.
	ms.set("open.p50_ms", "ms", sv.openPctl(anyOp, 0.50).median)
	ms.set("open.p99_ms", "ms", sv.openPctl(anyOp, 0.99).median)

	// harness validity
	ms.set("loadgen.cpu_speed", "ratio", sv.closedSpeed())
	ms.set("loadgen.lag_p99_ms", "ms", sv.lagP99())
	ms.set("loadgen.gen_s", "s", sv.in.genSeconds)
}

// printMetrics lists a metric set by name.
func printMetrics(w io.Writer, ms metricSet) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, n := range names {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", n, ms[n].Value, ms[n].Unit)
	}
	tw.Flush()
}

// openPctl is an open-loop latency percentile, median window, as measured.
func (sv *served) openPctl(keep func(opRecord) bool, p float64) windowed {
	return windowStat(sv.open, nil, keep, pctl(p), nil)
}

// openReport prints the open loop's figures, which are per-layer rows: as
// measured, at the workload's fixed rate, from each request's due time.
func (sv *served) openReport(w io.Writer) {
	p50, p99, lag := sv.openPctl(anyOp, 0.50), sv.openPctl(anyOp, 0.99), sv.lagP99()
	fmt.Fprintf(w, "  open loop at %.4g req/s, from due time, as measured: p50 %v ms, p99 %v ms; generator lag p99 %.3f ms\n",
		sv.openRate, p50, p99, lag)
	if lag > p50.median/10 {
		fmt.Fprintf(w, "  generator-limited: lag p99 exceeds 10%% of the open-loop p50, so the open-loop tail includes the generator's own lateness\n")
	}
}
