package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// instrumentedSharded builds a 4-shard database with metrics wired and a
// corpus spread across shards (distinct labels hash to different shards).
func instrumentedSharded(t *testing.T, reg *obs.Registry, n int) (*ShardedDB, *core.Sequence) {
	t.Helper()
	s, err := New(core.Options{Dim: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetMetrics(reg)
	rng := rand.New(rand.NewSource(7))
	var first *core.Sequence
	for i := 0; i < n; i++ {
		pts := make([]geom.Point, 60)
		x, y := rng.Float64(), rng.Float64()
		for j := range pts {
			x += (rng.Float64() - 0.5) * 0.04
			y += (rng.Float64() - 0.5) * 0.04
			pts[j] = geom.Point{x, y}
		}
		seq, err := core.NewSequence(fmt.Sprintf("seq-%d", i), pts)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = seq
		}
		if _, err := s.Add(seq); err != nil {
			t.Fatal(err)
		}
	}
	return s, first
}

// TestScatterRecordsShardMetrics checks the scatter-gather observables:
// one scatter advances the shared search families once (not once per
// shard), every shard's fan-out series gets an observation, and the
// straggler gap is recorded.
func TestScatterRecordsShardMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, first := instrumentedSharded(t, reg, 16)

	q := &core.Sequence{Label: "q", Points: first.Points[:15]}
	_, st, err := s.SearchCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mdseq_search_total", "").Value(); got != 1 {
		t.Fatalf("mdseq_search_total = %d, want 1 (scatter must count once)", got)
	}
	if got := reg.Counter("mdseq_shard_scatter_total", "").Value(); got != 1 {
		t.Fatalf("scatter_total = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		h := reg.Histogram("mdseq_shard_search_seconds", "", nil, core.ShardLabel(i))
		if h.Count() != 1 {
			t.Fatalf("shard %d fan-out histogram count = %d, want 1", i, h.Count())
		}
	}
	if got := reg.Histogram("mdseq_shard_straggler_gap_seconds", "", nil).Count(); got != 1 {
		t.Fatalf("straggler histogram count = %d, want 1", got)
	}
	// Merged CPUTime sums across shards; wall-clock phases take the max,
	// so CPUTime can never be smaller.
	if st.CPUTime < st.Total() {
		t.Fatalf("merged CPUTime %v < Total %v", st.CPUTime, st.Total())
	}
}

// TestMergeStatsWallVsCPU pins the documented semantics directly.
func TestMergeStatsWallVsCPU(t *testing.T) {
	var merged core.SearchStats
	a := core.SearchStats{Phase1: 1 * time.Millisecond, Phase2: 4 * time.Millisecond,
		Phase3: 2 * time.Millisecond, CandidatesDmbr: 3, TotalSequences: 10}
	a.CPUTime = a.Total()
	b := core.SearchStats{Phase1: 2 * time.Millisecond, Phase2: 1 * time.Millisecond,
		Phase3: 5 * time.Millisecond, CandidatesDmbr: 4, TotalSequences: 12}
	b.CPUTime = b.Total()
	mergeStats(&merged, a)
	mergeStats(&merged, b)
	if merged.Phase1 != 2*time.Millisecond || merged.Phase2 != 4*time.Millisecond || merged.Phase3 != 5*time.Millisecond {
		t.Fatalf("phases must take per-phase max, got %v/%v/%v", merged.Phase1, merged.Phase2, merged.Phase3)
	}
	if want := a.CPUTime + b.CPUTime; merged.CPUTime != want {
		t.Fatalf("CPUTime must sum: got %v, want %v", merged.CPUTime, want)
	}
	if merged.Total() != 11*time.Millisecond {
		t.Fatalf("merged Total = %v, want 11ms (sum of per-phase maxima)", merged.Total())
	}
	if merged.CandidatesDmbr != 7 || merged.TotalSequences != 22 {
		t.Fatalf("counters must sum: %+v", merged)
	}
}

// TestMergeStatsPartialMerge pins the stats semantics of a k-of-n gather:
// the merge folds only the answered shards — sums and maxima cover the
// answered set and nothing else — while the Partial / ShardsAnswered
// markers are the gather loop's job, never mergeStats'.
func TestMergeStatsPartialMerge(t *testing.T) {
	shardStats := []core.SearchStats{
		{Phase1: 1 * time.Millisecond, Phase2: 2 * time.Millisecond, Phase3: 3 * time.Millisecond,
			CandidatesDmbr: 5, MatchesDnorm: 2, TotalSequences: 10, DnormEvals: 5, IndexEntriesHit: 7},
		{Phase1: 4 * time.Millisecond, Phase2: 1 * time.Millisecond, Phase3: 6 * time.Millisecond,
			CandidatesDmbr: 3, MatchesDnorm: 1, TotalSequences: 11, DnormEvals: 3, IndexEntriesHit: 9},
		// Shard 2 never answered: under AllowPartial its stats are simply
		// absent from the merge.
		{Phase1: 100 * time.Millisecond, Phase2: 100 * time.Millisecond, Phase3: 100 * time.Millisecond,
			CandidatesDmbr: 99, TotalSequences: 99},
	}
	for i := range shardStats {
		shardStats[i].CPUTime = shardStats[i].Total()
	}
	answered := shardStats[:2] // 2 of 3 shards

	var merged core.SearchStats
	for _, st := range answered {
		mergeStats(&merged, st)
	}
	// Wall phases: max over answered shards only — the missing shard's
	// (larger) timings must not leak in.
	if merged.Phase1 != 4*time.Millisecond || merged.Phase2 != 2*time.Millisecond || merged.Phase3 != 6*time.Millisecond {
		t.Fatalf("partial merge phases = %v/%v/%v, want maxima over answered shards only",
			merged.Phase1, merged.Phase2, merged.Phase3)
	}
	// CPUTime: sum over answered shards only.
	if want := answered[0].CPUTime + answered[1].CPUTime; merged.CPUTime != want {
		t.Fatalf("partial merge CPUTime = %v, want %v (answered shards only)", merged.CPUTime, want)
	}
	if merged.TotalSequences != 21 || merged.CandidatesDmbr != 8 || merged.MatchesDnorm != 3 {
		t.Fatalf("partial merge counters leak the missing shard: %+v", merged)
	}
	// mergeStats itself never claims completeness either way; the gather
	// loop stamps these after it knows how many shards answered.
	if merged.Partial || merged.ShardsAnswered != 0 {
		t.Fatalf("mergeStats must not stamp Partial/ShardsAnswered, got %v/%d",
			merged.Partial, merged.ShardsAnswered)
	}
}

// TestPartialMergeEndToEndStats drives a real 2-of-4 partial gather and
// checks the merged stats describe exactly the answered shards' work.
func TestPartialMergeEndToEndStats(t *testing.T) {
	seqs := corpus(t, 40, 64, 21)
	sdb := newSharded(t, clone(seqs), 4)
	q := &core.Sequence{Label: "q", Points: seqs[2].Points[4:36]}

	// Per-shard corpus sizes, taken directly from the shards that will
	// survive; timings vary run to run, so only structure is compared.
	var wantSeqs int
	for _, i := range []int{1, 2} {
		_, st, err := sdb.Shard(i).SearchCtx(context.Background(), q, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		wantSeqs += st.TotalSequences
	}
	for _, i := range []int{0, 3} {
		f := NewFaultDB(sdb.Shard(i), Fault{Err: errInjected})
		f.Cycle = true
		sdb.SetShardBackend(i, f)
	}
	sdb.SetPolicy(Policy{AllowPartial: true})

	_, st, per, err := sdb.SearchShardsCtx(context.Background(), q, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Partial || st.ShardsAnswered != 2 || len(per) != 2 {
		t.Fatalf("want 2-of-4 partial, got partial=%v answered=%d per=%d",
			st.Partial, st.ShardsAnswered, len(per))
	}
	if st.TotalSequences != wantSeqs {
		t.Fatalf("partial TotalSequences = %d, want %d (answered shards' corpora only)",
			st.TotalSequences, wantSeqs)
	}
	var perCPU time.Duration
	for _, ps := range per {
		if ps.Shard == 0 || ps.Shard == 3 {
			t.Fatalf("faulted shard %d appears in answered stats", ps.Shard)
		}
		perCPU += ps.Stats.CPUTime
	}
	if st.CPUTime != perCPU {
		t.Fatalf("merged CPUTime %v != sum of answered shards' CPUTime %v", st.CPUTime, perCPU)
	}
}

// TestShardedKNNSeedCounters checks that every shard launch lands in
// exactly one of the seeded/unseeded counters.
func TestShardedKNNSeedCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s, first := instrumentedSharded(t, reg, 16)
	q := &core.Sequence{Label: "q", Points: first.Points[:15]}
	if _, err := s.SearchKNNCtx(context.Background(), q, 3); err != nil {
		t.Fatal(err)
	}
	seeded := reg.Counter("mdseq_shard_knn_seeded_total", "").Value()
	unseeded := reg.Counter("mdseq_shard_knn_unseeded_total", "").Value()
	if seeded+unseeded != 4 {
		t.Fatalf("seeded %d + unseeded %d != 4 shard launches", seeded, unseeded)
	}
	if got := reg.Counter("mdseq_knn_total", "").Value(); got != 1 {
		t.Fatalf("knn_total = %d, want 1", got)
	}
}

// TestShardedExpositionHasPerShardSeries renders the registry and checks
// the per-shard label survives encoding.
func TestShardedExpositionHasPerShardSeries(t *testing.T) {
	reg := obs.NewRegistry()
	s, first := instrumentedSharded(t, reg, 8)
	q := &core.Sequence{Label: "q", Points: first.Points[:15]}
	if _, _, err := s.SearchCtx(context.Background(), q, 0.25); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`mdseq_shard_search_seconds_count{shard="0"} 1`,
		`mdseq_shard_search_seconds_count{shard="3"} 1`,
		"# TYPE mdseq_shard_straggler_gap_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
