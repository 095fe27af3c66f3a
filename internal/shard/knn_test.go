package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
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

// scanMetric is the exhaustive scan under m: the oracle, through Do.
func scanMetric(db DB, q *core.Sequence, eps float64, m core.Metric) ([]core.Match, error) {
	res, err := db.Do(context.Background(), core.Query{Seq: q, Kind: core.Scan, Eps: eps, Metric: m})
	return res.Matches, err
}

// scanTopK is the exhaustive answer: every sequence's exact metric
// distance from the sequential scan, sorted, cut at k. The scan reports
// no alignment offset, so its keys are the label:distance prefix of
// knnKeys'.
func scanTopK(t *testing.T, db DB, q *core.Sequence, k int, m core.Metric) []string {
	t.Helper()
	all, err := scanMetric(db, q, math.MaxFloat64, m)
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
					want, err := single.SearchKNNMetricCtx(context.Background(), q, k, m)
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
					got, err := sdb.SearchKNNMetricCtx(context.Background(), q, k, m)
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
		// One shard, so local ids are the global ones.
		bound := new(core.KNNBound)
		g := &knnScatter{s: &ShardedDB{shards: make([]Node, 1)}, q: core.Query{Kind: core.KNN, K: 5}, bound: bound}
		for _, i := range order {
			g.merge(0, core.Result{Matches: lists[i]})
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

func (b searchThenFail) Do(ctx context.Context, q core.Query) (core.Result, error) {
	b.Backend.Do(ctx, q)
	return core.Result{}, errInjected
}

// TestShardedKNNPartialIgnoresLostShardsBound: with AllowPartial, a shard
// that published its k-th best and then failed must not have pruned the
// shards that answer — the degraded answer is the exact top k of the
// answered shards' sequences, k of them when they hold that many. The
// failing shard holds the query's source, so its k-th best is far below
// the survivor's and would cut the survivor short (fails with one bound
// shared by all shards: fewer than k neighbors come back). The same goes
// for what it offers: with one near-duplicate fewer it has no k-th best
// worth publishing, but k−1 offers of its own and one from the survivor
// would make a pool of k.
func TestShardedKNNPartialIgnoresLostShardsBound(t *testing.T) {
	seqs := metricCorpus(t, 40, 81)
	const k = 5
	for _, dups := range []int{k, k - 1} {
		for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
			sdb := newSharded(t, clone(seqs), 2)
			sdb.SetPolicy(Policy{AllowPartial: true})
			// Near-duplicates of one sequence, all on the shard that will fail
			// (placement is by label hash).
			const lost = 0
			src := seqs[3]
			for i, added := 0, 0; added < dups; i++ {
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
			want, err := sdb.Shard(1).SearchKNNMetricCtx(context.Background(), q, k, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != k {
				t.Fatalf("metric=%s: surviving shard alone returns %d neighbors, want %d", m.Name(), len(want), k)
			}
			sdb.SetShardBackend(lost, searchThenFail{sdb.Shard(lost)})
			sdb.SetShardBackend(1, NewFaultDB(sdb.Shard(1), Fault{Delay: 20 * time.Millisecond}))
			res, err := sdb.Do(context.Background(), core.Query{Seq: q, Kind: core.KNN, K: k, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			// A degraded kNN silently misses the lost shard's neighbors; the
			// flag is all that tells the caller.
			if st := res.Stats; !st.Partial || st.ShardsAnswered != 1 || len(res.PerShard) != 1 || res.PerShard[0].Shard != 1 {
				t.Fatalf("metric=%s: degraded answer says Partial=%v ShardsAnswered=%d PerShard=%v, want true, 1 and shard 1 alone",
					m.Name(), st.Partial, st.ShardsAnswered, res.PerShard)
			}
			got := res.Matches
			for i := range want {
				want[i].SeqID = sdb.globalID(1, want[i].SeqID)
			}
			if fmt.Sprint(knnKeys(got)) != fmt.Sprint(knnKeys(want)) {
				t.Fatalf("metric=%s, %d near-duplicates lost: partial answer differs from the answered shard's own top %d:\n got %v\nwant %v",
					m.Name(), dups, k, knnKeys(got), knnKeys(want))
			}
		}
	}
}

// searchThenLose is a backend whose first kNN call does the search's whole
// work — offering and publishing on the way — and then loses the answer:
// it fails at once, so that a retry follows, or with stall set sits on the
// answer until its context fires, so that a hedge overtakes it. Later
// calls pass through.
type searchThenLose struct {
	Backend
	stall bool
	calls atomic.Int32
}

func (b *searchThenLose) lose(ctx context.Context) error {
	if b.stall {
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
		}
	}
	return errInjected
}

func (b *searchThenLose) Do(ctx context.Context, q core.Query) (core.Result, error) {
	res, err := b.Backend.Do(ctx, q)
	if b.calls.Add(1) == 1 {
		return core.Result{}, b.lose(ctx)
	}
	return res, err
}

// TestShardedKNNPoolCountsASequenceOnce: two attempts of one shard — a
// failed one and its retry, a stalled one and its hedge — both refine the
// query's nearest neighbor and both offer it. The pool must hold it once:
// counted twice, two copies of distance 0 are the "2 best" at k = 2, the
// bound drops to 0, and the other shard, which starts later, dismisses the
// true second neighbor.
func TestShardedKNNPoolCountsASequenceOnce(t *testing.T) {
	seqs := metricCorpus(t, 40, 83)
	src := seqs[3]
	home := ShardFor(src.Label, 2)
	near := src.Clone()
	for i := 0; ; i++ {
		if near.Label = fmt.Sprintf("near%d", i); ShardFor(near.Label, 2) != home {
			break
		}
	}
	near.Points[0][0] += 1e-4
	all := append(clone(seqs), near)
	single := newSingle(t, clone(all))
	q := &core.Sequence{Label: "q", Points: src.Points}
	for _, mode := range []struct {
		name  string
		pol   Policy
		stall bool
	}{
		{"retry", Policy{Retries: 1}, false},
		{"hedge", Policy{HedgeAfter: 2 * time.Millisecond}, true},
	} {
		for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
			t.Run(mode.name+"/"+m.Name(), func(t *testing.T) {
				want, err := single.SearchKNNMetricCtx(context.Background(), q, 2, m)
				if err != nil {
					t.Fatal(err)
				}
				if want[0].Seq.Label != src.Label || want[1].Seq.Label != near.Label {
					t.Fatalf("the two nearest are %s and %s, the test needs %s and %s",
						want[0].Seq.Label, want[1].Seq.Label, src.Label, near.Label)
				}
				sdb := newSharded(t, clone(all), 2)
				sdb.SetPolicy(mode.pol)
				twice := &searchThenLose{Backend: sdb.Shard(home), stall: mode.stall}
				sdb.SetShardBackend(home, twice)
				// The other shard starts once both attempts are through, its
				// own hedge included.
				late := Fault{Delay: 30 * time.Millisecond}
				sdb.SetShardBackend(1-home, NewFaultDB(sdb.Shard(1-home), late, late))
				got, err := sdb.SearchKNNMetricCtx(context.Background(), q, 2, m)
				if err != nil {
					t.Fatal(err)
				}
				if twice.calls.Load() != 2 {
					t.Fatalf("%d attempts on the shard holding the query's source, want 2", twice.calls.Load())
				}
				if fmt.Sprint(knnKeys(got)) != fmt.Sprint(knnKeys(want)) {
					t.Fatalf("answer differs from the single database's:\n got %v\nwant %v", knnKeys(got), knnKeys(want))
				}
			})
		}
	}
}

// TestKNNIndexWalkMatchesScan is the scatter's side of core's differential
// test: with every shard searching against the one live bound and offering
// to its pool — concurrently, so run it under -race — the gathered answer
// equals the exhaustive scan's sorted by (Dist, global id) and cut at k, ids
// and distance bits, under D and DTW, on 1, 4 and 8 shards, for k of 1, 10,
// every sequence and more than there are,
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
	for _, nsh := range []int{1, 4, 8} {
		sdb := newSharded(t, clone(seqs), nsh)
		n := sdb.Len()
		for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
			for qi, q := range queries {
				scan, err := scanMetric(sdb, q, math.MaxFloat64, m)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(scan, func(a, b int) bool {
					return scan[a].Dist < scan[b].Dist || (scan[a].Dist == scan[b].Dist && scan[a].SeqID < scan[b].SeqID)
				})
				for _, k := range []int{1, 10, n, n + 5} {
					got, err := sdb.SearchKNNMetricCtx(context.Background(), q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					want := scan[:min(k, len(scan))]
					if len(got) != len(want) {
						t.Fatalf("shards=%d metric=%s query %d k %d: %d neighbors, scan %d", nsh, m.Name(), qi, k, len(got), len(want))
					}
					for i := range got {
						if got[i].SeqID != want[i].SeqID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("shards=%d metric=%s query %d k %d neighbor %d: got {seq %d dist %v}, scan {seq %d dist %v}",
								nsh, m.Name(), qi, k, i, got[i].SeqID, got[i].Dist, want[i].SeqID, want[i].Dist)
						}
					}
				}
			}
		}
	}
}

// warpedQuery is a whole stored sequence with up to 8 points dropped or
// duplicated and every coordinate jittered — the harness's DTW query shape.
func warpedQuery(rng *rand.Rand, src *core.Sequence) *core.Sequence {
	pts := make([]geom.Point, 0, src.Len()+8)
	for _, p := range src.Points {
		pts = append(pts, p.Clone())
	}
	for e := rng.Intn(9); e > 0; e-- {
		i := rng.Intn(len(pts))
		if rng.Intn(2) == 0 && len(pts) > 2 {
			pts = append(pts[:i], pts[i+1:]...)
		} else {
			pts = append(pts[:i+1], pts[i:]...)
			pts[i+1] = pts[i].Clone()
		}
	}
	for _, p := range pts {
		for d := range p {
			p[d] = clamp01(p[d] + rng.NormFloat64()*0.004)
		}
	}
	return &core.Sequence{Label: "warped", Points: pts}
}

// TestShardedKNNWorkNearOneDatabase is the work gate of the shared top-k
// pool: over 240 queries shaped like the harness's knn-dtw-shard4 stream
// (Table 2 video corpus, k = 10; D on a 28–96-point window of a stored
// sequence, DTW under a 16-wide band on a warped whole one), four shards
// together refine not much more than one database holding the same corpus
// does — the floor, since that database's cutoff is the global k-th best as
// soon as k sequences are refined anywhere. On this half-size corpus, with
// each shard's cutoff finite only once that shard alone had refined k, the
// ratios read 1.51 (D) and 1.85–1.89 (DTW) whatever GOMAXPROCS is; pooled,
// 1.19–1.27 and 1.36–1.40 on two or more CPUs and 1.33 and 1.55 on one,
// where the shards run one after another and only the later ones find a pool.
func TestShardedKNNWorkNearOneDatabase(t *testing.T) {
	cfg := experiment.PaperVideo()
	cfg.NumSequences = 704
	seqs, err := experiment.GenerateData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, sdb := newSingle(t, clone(seqs)), newSharded(t, clone(seqs), 4)
	regOne, regFour := obs.NewRegistry(), obs.NewRegistry()
	single.SetMetrics(regOne)
	sdb.SetMetrics(regFour)
	refined := func(reg *obs.Registry) uint64 { return reg.Counter("mdseq_knn_refined_total", "").Value() }

	const k, queries = 10, 120
	rng := rand.New(rand.NewSource(97))
	for _, c := range []struct {
		m     core.Metric
		limit float64
		query func() *core.Sequence
	}{
		{core.MetricD{}, 1.42, func() *core.Sequence {
			src := seqs[rng.Intn(len(seqs))]
			n := min(cfg.QueryMinLen+rng.Intn(cfg.QueryMaxLen-cfg.QueryMinLen+1), src.Len())
			off := rng.Intn(src.Len() - n + 1)
			return &core.Sequence{Label: "window", Points: src.Points[off : off+n]}
		}},
		{core.MetricDTW{Window: 16}, 1.70, func() *core.Sequence { return warpedQuery(rng, seqs[rng.Intn(len(seqs))]) }},
	} {
		one0, four0 := refined(regOne), refined(regFour)
		for i := 0; i < queries; i++ {
			q := c.query()
			want, err := single.SearchKNNMetricCtx(context.Background(), q, k, c.m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sdb.SearchKNNMetricCtx(context.Background(), q, k, c.m)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(knnKeys(got)) != fmt.Sprint(knnKeys(want)) {
				t.Fatalf("metric=%s query %d: four shards answer %v, one database %v", c.m.Name(), i, knnKeys(got), knnKeys(want))
			}
		}
		one, four := refined(regOne)-one0, refined(regFour)-four0
		ratio := float64(four) / float64(one)
		t.Logf("metric=%s: one database refined %d, four shards %d (%.2f×)", c.m.Name(), one, four, ratio)
		if one == 0 || ratio > c.limit {
			t.Errorf("metric=%s: four shards refined %d sequences, one database %d: %.2f× is over the gate of %.2f×",
				c.m.Name(), four, one, ratio, c.limit)
		}
	}
}
