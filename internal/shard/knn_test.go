package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// knnKeys is a topology-independent view of a neighbor list: label,
// distance bits and alignment offset (ids differ between topologies by
// design).
func knnKeys(rs []core.KNNResult) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%s:%x:%d", r.Seq.Label, math.Float64bits(r.Dist), r.Offset)
	}
	return out
}

// scanTopK is the exhaustive answer: every sequence's exact metric
// distance from the sequential scan, sorted, cut at k. The scan reports
// no alignment offset, so its keys are the label:distance prefix of
// knnKeys'.
func scanTopK(t *testing.T, db DB, q *core.Sequence, k int, m core.Metric) []string {
	t.Helper()
	all, err := db.SequentialSearchMetric(q, math.MaxFloat64, m)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Dist < all[b].Dist })
	if len(all) > k {
		all = all[:k]
	}
	out := make([]string, len(all))
	for i, r := range all {
		out[i] = fmt.Sprintf("%s:%x", r.Seq.Label, math.Float64bits(r.Dist))
	}
	return out
}

// TestShardedKNNLiveBoundEquivalence: with every shard pruning against
// one live bound — under injected delays that shuffle which shard
// publishes first, failed first attempts that are retried and slow ones
// that are hedged, all attempts sharing the bound — the gathered answer
// equals the single database's (labels, distance bits, offsets, order) and
// the exhaustive scan's, for D and DTW, across shard counts.
func TestShardedKNNLiveBoundEquivalence(t *testing.T) {
	seqs := metricCorpus(t, 60, 71)
	single := newSingle(t, clone(seqs))
	rng := rand.New(rand.NewSource(72))
	queries := []*core.Sequence{
		{Label: "prefix", Points: seqs[7].Points[:22]},
		{Label: "window", Points: seqs[31].Points[5:30]},
		{Label: "whole", Points: seqs[12].Points},
		{Label: "fresh", Points: metricCorpus(t, 1, 73)[0].Points[:24]},
	}
	metrics := []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}, core.MetricDTW{Window: 8}}
	for _, nsh := range []int{1, 2, 4, 7} {
		sdb := newSharded(t, clone(seqs), nsh)
		reg := obs.NewRegistry()
		sdb.SetMetrics(reg)
		sdb.SetPolicy(Policy{Retries: 2, HedgeAfter: 300 * time.Microsecond})
		for _, m := range metrics {
			for _, q := range queries {
				for _, k := range []int{1, 4, 9} {
					want, err := single.SearchKNNMetric(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					// Fresh scripts per query: a first attempt that fails on
					// some shards, delays on both sides of the hedge trigger.
					for i := 0; i < nsh; i++ {
						script := []Fault{{Delay: time.Duration(rng.Intn(900)) * time.Microsecond}}
						if rng.Intn(3) == 0 {
							script = append([]Fault{{Err: errInjected}}, script...)
						}
						sdb.SetShardBackend(i, NewFaultDB(sdb.Shard(i), script...))
					}
					got, err := sdb.SearchKNNMetric(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					gk, wk := knnKeys(got), knnKeys(want)
					if fmt.Sprint(gk) != fmt.Sprint(wk) {
						t.Fatalf("shards=%d metric=%s query=%s k=%d: gathered answer differs from the single database's:\n got %v\nwant %v",
							nsh, m.Name(), q.Label, k, gk, wk)
					}
					scan := scanTopK(t, sdb, q, k, m)
					for i, key := range scan {
						if len(gk[i]) < len(key) || gk[i][:len(key)] != key {
							t.Fatalf("shards=%d metric=%s query=%s k=%d: neighbor %d is %s, exhaustive scan says %s",
								nsh, m.Name(), q.Label, k, i, gk[i], key)
						}
					}
					if len(scan) != len(gk) {
						t.Fatalf("shards=%d metric=%s query=%s k=%d: %d neighbors, exhaustive scan has %d",
							nsh, m.Name(), q.Label, k, len(gk), len(scan))
					}
				}
			}
		}
		if reg.Counter("mdseq_shard_retries_total", "").Value() == 0 {
			t.Fatalf("shards=%d: no attempt was retried; the scripts no longer exercise the retry path", nsh)
		}
		if reg.Counter("mdseq_shard_hedges_total", "").Value() == 0 {
			t.Fatalf("shards=%d: no attempt was hedged; the scripts no longer exercise the hedge path", nsh)
		}
	}
}

// TestKNNGatherMergeOrder: merging shard lists in any arrival order gives
// the k smallest by (distance, id), ties included, and publishes the
// merged k-th best.
func TestKNNGatherMergeOrder(t *testing.T) {
	mk := func(id uint32, d float64) core.KNNResult { return core.KNNResult{SeqID: id, Dist: d} }
	lists := [][]core.KNNResult{
		{mk(9, 0.1), mk(3, 0.5), mk(6, 0.5), mk(12, 0.9)},
		{mk(7, 0.5), mk(1, 0.5), mk(4, 0.7)}, // a shard's ties arrive in refinement order
		{},
		{mk(2, 0.05), mk(5, 0.5)},
	}
	want := []uint32{2, 9, 1, 3, 5}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}} {
		g := &knnGather{k: 5}
		bound := new(core.KNNBound)
		for _, i := range order {
			g.merge(append([]core.KNNResult(nil), lists[i]...), bound)
		}
		if len(g.out) != len(want) {
			t.Fatalf("order %v: %d results, want %d", order, len(g.out), len(want))
		}
		for i, id := range want {
			if g.out[i].SeqID != id {
				t.Fatalf("order %v: result %d is id %d, want %d (%v)", order, i, g.out[i].SeqID, id, g.out)
			}
		}
		if bound.Load() != 0.5 {
			t.Fatalf("order %v: published bound %v, want the merged k-th best 0.5", order, bound.Load())
		}
	}
}

// searchThenFail is a backend that does a kNN search's whole work —
// publishing its k-th best on the way — and then loses the answer: a shard
// that hits its timeout just before returning.
type searchThenFail struct{ Backend }

func (b searchThenFail) SearchKNNBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound) ([]core.KNNResult, error) {
	b.Backend.SearchKNNBoundedCtx(ctx, q, k, bound)
	return nil, errInjected
}

func (b searchThenFail) SearchKNNMetricBoundedCtx(ctx context.Context, q *core.Sequence, k int, bound *core.KNNBound, m core.Metric) ([]core.KNNResult, error) {
	b.Backend.SearchKNNMetricBoundedCtx(ctx, q, k, bound, m)
	return nil, errInjected
}

// TestShardedKNNPartialIgnoresLostShardsBound: with AllowPartial, a shard
// that published its k-th best and then failed must not have pruned the
// shards that answer — the degraded answer is the exact top k of the
// answered shards' sequences, k of them when they hold that many. The
// failing shard holds the query's source, so its k-th best is far below
// the survivor's and would cut the survivor short (fails with one bound
// shared by all shards: fewer than k neighbors come back).
func TestShardedKNNPartialIgnoresLostShardsBound(t *testing.T) {
	seqs := metricCorpus(t, 40, 81)
	const k = 5
	for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
		sdb := newSharded(t, clone(seqs), 2)
		sdb.SetPolicy(Policy{AllowPartial: true})
		// Near-duplicates of one sequence, all on the shard that will fail
		// (placement is by label hash).
		const lost = 0
		src := seqs[3]
		for i, added := 0, 0; added < k; i++ {
			dup := src.Clone()
			dup.Label = fmt.Sprintf("dup%d", i)
			if ShardFor(dup.Label, 2) != lost {
				continue
			}
			added++
			dup.Points[0][0] += 1e-4 * float64(added)
			if _, err := sdb.Add(dup); err != nil {
				t.Fatal(err)
			}
		}
		q := &core.Sequence{Label: "q", Points: src.Points}
		want, err := sdb.Shard(1).SearchKNNMetricBoundedCtx(context.Background(), q, k, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != k {
			t.Fatalf("metric=%s: surviving shard alone returns %d neighbors, want %d", m.Name(), len(want), k)
		}
		sdb.SetShardBackend(lost, searchThenFail{sdb.Shard(lost)})
		sdb.SetShardBackend(1, NewFaultDB(sdb.Shard(1), Fault{Delay: 20 * time.Millisecond}))
		got, err := sdb.SearchKNNMetric(q, k, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i].SeqID = sdb.globalID(1, want[i].SeqID)
		}
		if fmt.Sprint(knnKeys(got)) != fmt.Sprint(knnKeys(want)) {
			t.Fatalf("metric=%s: partial answer differs from the answered shard's own top %d:\n got %v\nwant %v",
				m.Name(), k, knnKeys(got), knnKeys(want))
		}
	}
}

// TestKNNIndexWalkMatchesScan is the scatter's side of core's differential
// test: with every shard walking its own index against the one live bound
// — concurrently, so run it under -race — the gathered answer equals the
// exhaustive scan's sorted by (Dist, global id) and cut at k, ids and
// distance bits, for k of 1, 10, every sequence and more than there are,
// queries shorter and longer than stored sequences, and a corpus whose
// duplicates tie across shards.
func TestKNNIndexWalkMatchesScan(t *testing.T) {
	seqs := metricCorpus(t, 48, 91)
	for i := 0; i < 48; i += 4 {
		seqs = append(seqs, &core.Sequence{Label: fmt.Sprintf("twin-%03d", i), Points: seqs[i].Points})
	}
	short := metricCorpus(t, 12, 92)
	for i, s := range short {
		seqs = append(seqs, &core.Sequence{Label: fmt.Sprintf("short-%03d", i), Points: s.Points[:3+i]})
	}
	queries := []*core.Sequence{
		{Points: seqs[5].Points[3:20]},
		{Points: seqs[8].Points},
		{Points: seqs[50].Points[:9]},
		{Points: append(append([]geom.Point{}, seqs[2].Points...), seqs[3].Points...)}, // longer than anything stored
		{Points: metricCorpus(t, 1, 93)[0].Points[:1]},
	}
	for _, nsh := range []int{1, 4} {
		sdb := newSharded(t, clone(seqs), nsh)
		n := sdb.Len()
		for qi, q := range queries {
			scan, err := sdb.SequentialSearchMetric(q, math.MaxFloat64, core.MetricD{})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(scan, func(a, b int) bool {
				return scan[a].Dist < scan[b].Dist || (scan[a].Dist == scan[b].Dist && scan[a].SeqID < scan[b].SeqID)
			})
			for _, k := range []int{1, 10, n, n + 5} {
				got, err := sdb.SearchKNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := scan[:min(k, len(scan))]
				if len(got) != len(want) {
					t.Fatalf("shards=%d query %d k %d: %d neighbors, scan %d", nsh, qi, k, len(got), len(want))
				}
				for i := range got {
					if got[i].SeqID != want[i].SeqID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("shards=%d query %d k %d neighbor %d: got {seq %d dist %v}, scan {seq %d dist %v}",
							nsh, qi, k, i, got[i].SeqID, got[i].Dist, want[i].SeqID, want[i].Dist)
					}
				}
			}
		}
	}
}
