package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// metricCorpus generates labeled random walks with deliberately unequal
// lengths so DTW window edge cases appear across shards.
func metricCorpus(t testing.TB, n int, seed int64) []*core.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]*core.Sequence, n)
	for i := range seqs {
		length := 25 + rng.Intn(80)
		pts := make([]geom.Point, length)
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		for j := range pts {
			q := make(geom.Point, 3)
			for k := range q {
				q[k] = clamp01(p[k] + (rng.Float64()-0.5)*0.08)
			}
			pts[j] = q
			p = q
		}
		seqs[i] = &core.Sequence{Label: fmt.Sprintf("seq-%03d", i), Points: pts}
	}
	return seqs
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TestShardedMetricRangeMatchesSingle: the scattered DTW range search
// equals the single-node answer (labels + bit-identical distances) and
// the sharded exhaustive scan, across shard counts and windows.
func TestShardedMetricRangeMatchesSingle(t *testing.T) {
	seqs := metricCorpus(t, 40, 51)
	single := newSingle(t, clone(seqs))
	for _, nsh := range []int{2, 5} {
		sdb := newSharded(t, clone(seqs), nsh)
		for _, window := range []int{-1, 3} {
			mt := core.MetricDTW{Window: window}
			q := &core.Sequence{Label: "q", Points: seqs[4].Points[:20]}
			const eps = 0.4
			want, _, err := single.SearchMetricCtx(context.Background(), q, eps, mt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := sdb.SearchMetricCtx(context.Background(), q, eps, mt)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := scanMetric(sdb, q, eps, mt)
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string][]core.MetricMatch{"scatter": got, "scan": scan} {
				if len(res) != len(want) {
					t.Fatalf("shards=%d window=%d %s: %d matches, want %d", nsh, window, name, len(res), len(want))
				}
				wantByLabel := map[string]float64{}
				for _, m := range want {
					wantByLabel[m.Seq.Label] = m.Dist
				}
				for _, m := range res {
					wd, ok := wantByLabel[m.Seq.Label]
					if !ok {
						t.Fatalf("shards=%d window=%d %s: unexpected match %s", nsh, window, name, m.Seq.Label)
					}
					if math.Float64bits(m.Dist) != math.Float64bits(wd) {
						t.Fatalf("shards=%d window=%d %s: %s dist %v, want bit-identical %v",
							nsh, window, name, m.Seq.Label, m.Dist, wd)
					}
				}
			}
			// Global-id ascending order is part of the contract.
			if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].SeqID < got[b].SeqID }) {
				t.Fatalf("shards=%d window=%d: scattered matches not id-ascending", nsh, window)
			}
		}
	}
}

// TestShardedMetricKNNMatchesSingle: the bound-seeded scattered DTW kNN
// returns the same neighbor set (by label, bit-identical distances) as a
// single-node database over the same corpus.
func TestShardedMetricKNNMatchesSingle(t *testing.T) {
	seqs := metricCorpus(t, 40, 57)
	single := newSingle(t, clone(seqs))
	for _, nsh := range []int{2, 5} {
		sdb := newSharded(t, clone(seqs), nsh)
		for _, window := range []int{-1, 6} {
			mt := core.MetricDTW{Window: window}
			q := &core.Sequence{Label: "q", Points: seqs[7].Points[:22]}
			const k = 7
			want, err := single.SearchKNNMetricCtx(context.Background(), q, k, mt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sdb.SearchKNNMetricCtx(context.Background(), q, k, mt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d window=%d: %d neighbors, want %d", nsh, window, len(got), len(want))
			}
			key := func(rs []core.KNNResult) []string {
				out := make([]string, len(rs))
				for i, r := range rs {
					out[i] = fmt.Sprintf("%s:%x", r.Seq.Label, math.Float64bits(r.Dist))
				}
				sort.Strings(out)
				return out
			}
			gk, wk := key(got), key(want)
			for i := range wk {
				if gk[i] != wk[i] {
					t.Fatalf("shards=%d window=%d: neighbor sets differ:\n got %v\nwant %v", nsh, window, gk, wk)
				}
			}
			// Distances must be served in nondecreasing order.
			if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Dist < got[b].Dist }) {
				t.Fatalf("shards=%d window=%d: gathered neighbors not distance-sorted", nsh, window)
			}
		}
	}
}

// TestShardedMetricFrontCache: the scatter front cache memoizes metric
// range and kNN answers per metric identity — a repeat under the same
// metric hits, a different window misses.
func TestShardedMetricFrontCache(t *testing.T) {
	seqs := metricCorpus(t, 30, 61)
	sdb := newSharded(t, clone(seqs), 3)
	sdb.SetCache(cache.New(cache.Config{}))
	q := &core.Sequence{Label: "q", Points: seqs[2].Points[:18]}
	const eps = 0.4

	first, st1, err := sdb.SearchMetricCtx(context.Background(), q, eps, core.MetricDTW{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first metric scatter flagged as cache hit")
	}
	again, st2, err := sdb.SearchMetricCtx(context.Background(), q, eps, core.MetricDTW{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("repeat metric scatter missed the front cache")
	}
	if len(again) != len(first) {
		t.Fatalf("cached scatter has %d matches, computed had %d", len(again), len(first))
	}
	if _, st3, err := sdb.SearchMetricCtx(context.Background(), q, eps, core.MetricDTW{Window: 2}); err != nil {
		t.Fatal(err)
	} else if st3.CacheHit {
		t.Fatal("different window served from the other window's entry")
	}

	nn1, err := sdb.SearchKNNMetricCtx(context.Background(), q, 5, core.MetricDTW{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	nn2, err := sdb.SearchKNNMetricCtx(context.Background(), q, 5, core.MetricDTW{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(nn1) != len(nn2) {
		t.Fatalf("cached kNN gather differs: %d vs %d", len(nn2), len(nn1))
	}
	for i := range nn1 {
		if nn1[i].SeqID != nn2[i].SeqID || math.Float64bits(nn1[i].Dist) != math.Float64bits(nn2[i].Dist) {
			t.Fatalf("cached kNN neighbor %d differs", i)
		}
	}
}

// TestShardedMetricDTWCounters: a wired ShardedDB reports DTW queries
// into the mdseq_dtw_* families — the scatter layer must forward the
// merged pruning ladder, since child shards are deliberately unwired.
func TestShardedMetricDTWCounters(t *testing.T) {
	seqs := metricCorpus(t, 30, 67)
	sdb := newSharded(t, clone(seqs), 3)
	reg := obs.NewRegistry()
	sdb.SetMetrics(reg)
	q := &core.Sequence{Label: "q", Points: seqs[5].Points[:20]}

	if _, st, err := sdb.SearchMetricCtx(context.Background(), q, 0.4, core.MetricDTW{Window: -1}); err != nil {
		t.Fatal(err)
	} else if st.CandidatesDmbr == 0 {
		t.Fatal("workload produced no candidates; the counter assertion below is vacuous")
	}
	if _, err := sdb.SearchKNNMetricCtx(context.Background(), q, 3, core.MetricDTW{Window: -1}); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("mdseq_dtw_search_total", "").Value(); got != 1 {
		t.Fatalf("mdseq_dtw_search_total = %d, want 1", got)
	}
	if got := reg.Counter("mdseq_dtw_knn_total", "").Value(); got != 1 {
		t.Fatalf("mdseq_dtw_knn_total = %d, want 1", got)
	}
	if got := reg.Counter("mdseq_dtw_candidates_total", "").Value(); got == 0 {
		t.Fatal("mdseq_dtw_candidates_total stayed 0 after a sharded DTW range search")
	}
	pruned := reg.Counter("mdseq_dtw_env_pruned_total", "").Value() +
		reg.Counter("mdseq_dtw_keogh_pruned_total", "").Value()
	evals := reg.Counter("mdseq_dtw_evals_total", "").Value()
	if pruned+evals == 0 {
		t.Fatal("no DTW candidate was counted as pruned or evaluated")
	}

	// A D-metric query must leave the DTW families untouched.
	if _, _, err := sdb.SearchMetricCtx(context.Background(), q, 0.4, core.MetricD{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mdseq_dtw_search_total", "").Value(); got != 1 {
		t.Fatalf("mdseq_dtw_search_total = %d after a D query, want still 1", got)
	}
}

// TestShardedKNNCounters: a wired ShardedDB — every mdsserve is one,
// -shards 1 included — reports what its kNN queries refined and pruned.
// The child shards are unwired, so the counts travel on the query's shared
// bound and the gather records them once: the D ladder into
// mdseq_knn_refined/pruned_total, the DTW ladder into the mdseq_dtw_*
// families as well.
func TestShardedKNNCounters(t *testing.T) {
	seqs := metricCorpus(t, 30, 69)
	q := &core.Sequence{Label: "q", Points: seqs[5].Points[:20]}
	for _, nsh := range []int{1, 3} {
		sdb := newSharded(t, clone(seqs), nsh)
		reg := obs.NewRegistry()
		sdb.SetMetrics(reg)
		value := func(name string) uint64 { return reg.Counter(name, "").Value() }

		if _, err := sdb.SearchKNNCtx(context.Background(), q, 3); err != nil {
			t.Fatal(err)
		}
		refined, pruned := value("mdseq_knn_refined_total"), value("mdseq_knn_pruned_total")
		if refined == 0 {
			t.Fatalf("shards=%d: mdseq_knn_refined_total stayed 0 after a sharded kNN", nsh)
		}
		if refined+pruned != uint64(len(seqs)) {
			t.Fatalf("shards=%d: refined %d + pruned %d, want every one of the %d sequences accounted for",
				nsh, refined, pruned, len(seqs))
		}
		if got := value("mdseq_dtw_knn_total"); got != 0 {
			t.Fatalf("shards=%d: a D kNN counted %d DTW kNN queries", nsh, got)
		}

		if _, err := sdb.SearchKNNMetricCtx(context.Background(), q, 3, core.MetricDTW{Window: 10}); err != nil {
			t.Fatal(err)
		}
		if got := value("mdseq_dtw_knn_total"); got != 1 {
			t.Fatalf("shards=%d: mdseq_dtw_knn_total = %d, want 1", nsh, got)
		}
		if got := value("mdseq_dtw_candidates_total"); got != uint64(len(seqs)) {
			t.Fatalf("shards=%d: mdseq_dtw_candidates_total = %d after a sharded DTW kNN, want every one of the %d sequences", nsh, got, len(seqs))
		}
		ladder := value("mdseq_dtw_env_pruned_total") + value("mdseq_dtw_keogh_pruned_total") + value("mdseq_dtw_evals_total")
		if ladder != uint64(len(seqs)) {
			t.Fatalf("shards=%d: DTW ladder accounts for %d sequences, want %d", nsh, ladder, len(seqs))
		}
		if value("mdseq_knn_refined_total") <= refined {
			t.Fatalf("shards=%d: the DTW kNN added nothing to mdseq_knn_refined_total", nsh)
		}
	}
}
