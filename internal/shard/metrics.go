package shard

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// shardMetrics is the pre-resolved instrument set for the scatter-gather
// layer. It wraps a core.Metrics (so a sharded deployment exposes the
// same mdseq_search_* families as a single node, fed with merged stats)
// and adds the cross-shard observables a single node cannot have:
// per-shard fan-out latency, the straggler gap, and how often a kNN
// shard launch found the query's shared bound already finite.
type shardMetrics struct {
	core *core.Metrics

	scatters *obs.Counter
	perShard []*obs.Histogram // fan-out latency, one series per shard
	strag    *obs.Histogram   // slowest − fastest shard per scatter

	knnSeeded   *obs.Counter
	knnUnseeded *obs.Counter

	// Fault-tolerance observables (see Policy): how often the robustness
	// machinery fired and how the races came out.
	retries      *obs.Counter
	hedges       *obs.Counter
	hedgesWon    *obs.Counter
	hedgesLost   *obs.Counter
	deadlineHits *obs.Counter
	partials     *obs.Counter
}

func newShardMetrics(reg *obs.Registry, n int) *shardMetrics {
	if reg == nil {
		return nil
	}
	m := &shardMetrics{
		core: core.NewMetrics(reg),
		scatters: reg.Counter("mdseq_shard_scatter_total",
			"Range searches scattered across all shards."),
		strag: reg.Histogram("mdseq_shard_straggler_gap_seconds",
			"Per-query gap between the slowest and fastest shard (queueing included) — the scatter's tail-latency tax.", nil),
		knnSeeded: reg.Counter("mdseq_shard_knn_seeded_total",
			"Per-shard kNN launches that started with a finite k-th-distance seed bound from earlier shards."),
		knnUnseeded: reg.Counter("mdseq_shard_knn_unseeded_total",
			"Per-shard kNN launches that started unseeded (bound +Inf)."),
		retries: reg.Counter("mdseq_shard_retries_total",
			"Per-shard query attempts re-run after a failure (Policy.Retries)."),
		hedges: reg.Counter("mdseq_shard_hedges_total",
			"Hedged requests launched because a shard was silent past Policy.HedgeAfter."),
		hedgesWon: reg.Counter("mdseq_shard_hedges_won_total",
			"Hedged requests that answered before the primary they raced."),
		hedgesLost: reg.Counter("mdseq_shard_hedges_lost_total",
			"Hedged requests beaten by their primary (wasted duplicate work)."),
		deadlineHits: reg.Counter("mdseq_shard_deadline_hits_total",
			"Per-shard attempts that blew the Policy.ShardTimeout budget."),
		partials: reg.Counter("mdseq_shard_partial_results_total",
			"Queries answered from fewer shards than exist (Policy.AllowPartial degradations)."),
	}
	m.perShard = make([]*obs.Histogram, n)
	for i := range m.perShard {
		m.perShard[i] = reg.Histogram("mdseq_shard_search_seconds",
			"Per-shard search latency in seconds during scatter-gather (queueing included), by shard.",
			nil, core.ShardLabel(i))
	}
	return m
}

// recordScatter folds one range fan-out into the registry: one scatter
// (a batch is one fan-out however many queries ride in it), each query's
// merged stats into the shared mdseq_search_* families, one partial result
// if any of them is, each shard's fan-out wall-clock into its own series,
// and the straggler gap. durs holds one entry per shard, measured from
// goroutine launch to result (so a shard queued behind the worker bound
// charges its wait here — that is the latency a caller actually
// experiences from the scatter).
func (m *shardMetrics) recordScatter(durs []time.Duration, merged ...core.SearchStats) {
	if m == nil {
		return
	}
	m.scatters.Inc()
	anyPartial := false
	for _, st := range merged {
		anyPartial = anyPartial || st.Partial
		m.core.RecordSearch(st)
	}
	if anyPartial {
		m.partials.Inc()
	}
	min, max := durs[0], durs[0]
	for i, d := range durs {
		m.perShard[i].ObserveDuration(d)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	m.strag.ObserveDuration(max - min)
}

// recordDTW folds a scattered DTW-metric range query's merged pruning
// ladder into the mdseq_dtw_* families.
func (m *shardMetrics) recordDTW(merged core.SearchStats) {
	if m == nil {
		return
	}
	m.core.RecordDTW(false, merged.CandidatesDmbr, merged.DTWEnvPruned, merged.DTWKeoghPruned, merged.DTWEvals)
}

// recordKNN counts one gathered kNN query, each shard launch's seeding
// outcome, and the pruning account its per-shard searches added to the
// query's shared bound (refined against Dnorm- or envelope-pruned; under
// dtw the full DTW ladder too) — the same families a single node feeds.
func (m *shardMetrics) recordKNN(d time.Duration, seeded, unseeded int, c core.KNNCounts, dtw bool) {
	if m == nil {
		return
	}
	m.core.RecordKNN(d, c.Refined, c.Candidates-c.Refined)
	if dtw {
		m.core.RecordDTW(true, c.Candidates, c.EnvPruned, c.KeoghPruned, c.Refined)
	}
	m.knnSeeded.Add(uint64(seeded))
	m.knnUnseeded.Add(uint64(unseeded))
}

// The fault-tolerance increments below are nil-safe so the robustness
// machinery (robustCall, hedgedAttempt) records unconditionally and an
// unwired database stays a pointer test per event.

// incRetry counts one re-run attempt.
func (m *shardMetrics) incRetry() {
	if m != nil {
		m.retries.Inc()
	}
}

// incHedge counts one hedged request launched.
func (m *shardMetrics) incHedge() {
	if m != nil {
		m.hedges.Inc()
	}
}

// hedgeOutcome records which side won a hedged race.
func (m *shardMetrics) hedgeOutcome(hedgeWon bool) {
	if m == nil {
		return
	}
	if hedgeWon {
		m.hedgesWon.Inc()
	} else {
		m.hedgesLost.Inc()
	}
}

// incDeadlineHit counts one per-shard attempt that exceeded ShardTimeout.
func (m *shardMetrics) incDeadlineHit() {
	if m != nil {
		m.deadlineHits.Inc()
	}
}

// incPartial counts one query served from fewer shards than exist.
func (m *shardMetrics) incPartial() {
	if m != nil {
		m.partials.Inc()
	}
}

// SetMetrics wires the sharded database to record into reg (nil
// detaches). Only the scatter-gather layer records: the child shards stay
// unwired so a query counts once, not once per shard — the merged stats
// carry the cross-shard sums. Shape gauges are seeded immediately.
func (s *ShardedDB) SetMetrics(reg *obs.Registry) {
	m := newShardMetrics(reg, len(s.shards))
	s.met.Store(m)
	if m != nil {
		m.core.SetShape(s.Len(), s.NumMBRs())
	}
}

// metrics returns the current recorder (nil when unwired) — an atomic
// load so SetMetrics is safe while queries are in flight.
func (s *ShardedDB) metrics() *shardMetrics {
	return s.met.Load()
}
