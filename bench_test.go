// Benchmarks mapping one-to-one onto the paper's evaluation artifacts
// (Table 2, Figures 6-10) plus ablations of the Section 3.4.3 design
// choices. Each figure bench exercises exactly the operation whose cost
// the figure reports, on a scaled-down Table 2 workload; the full-scale
// numbers recorded in EXPERIMENTS.md come from cmd/mdsbench.
//
// Run with: go test -bench=. -benchmem
package mdseq_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	mdseq "repro"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fractal"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/video"
)

// benchScale shrinks the Table 2 corpora so `go test -bench` stays fast.
const benchScale = 16

var (
	benchOnce sync.Once
	synBench  *experiment.Bench
	vidBench  *experiment.Bench
)

func setupBenches(b *testing.B) (*experiment.Bench, *experiment.Bench) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		synBench, err = experiment.Build(experiment.PaperSynthetic().Scaled(benchScale))
		if err != nil {
			panic(err)
		}
		vidBench, err = experiment.Build(experiment.PaperVideo().Scaled(benchScale))
		if err != nil {
			panic(err)
		}
	})
	return synBench, vidBench
}

// BenchmarkTable2BuildSynthetic measures corpus generation plus index
// construction for the (scaled) synthetic workload of Table 2.
func BenchmarkTable2BuildSynthetic(b *testing.B) {
	cfg := experiment.PaperSynthetic().Scaled(benchScale * 4)
	for i := 0; i < b.N; i++ {
		bench, err := experiment.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bench.Close()
	}
}

// BenchmarkTable2BuildVideo is the video counterpart, including frame
// rendering and feature extraction.
func BenchmarkTable2BuildVideo(b *testing.B) {
	cfg := experiment.PaperVideo().Scaled(benchScale * 4)
	for i := 0; i < b.N; i++ {
		bench, err := experiment.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bench.Close()
	}
}

// benchSearch runs the three-phase search for every query at eps.
func benchSearch(b *testing.B, bench *experiment.Bench, eps float64) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := bench.Queries[i%len(bench.Queries)]
		if _, _, err := bench.DB.Search(q, eps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PruningSynthetic measures the pruned search whose
// effectiveness Figure 6 reports (synthetic corpus, mid threshold).
func BenchmarkFig6PruningSynthetic(b *testing.B) {
	syn, _ := setupBenches(b)
	benchSearch(b, syn, 0.20)
}

// BenchmarkFig7PruningVideo is Figure 7's counterpart on video data.
func BenchmarkFig7PruningVideo(b *testing.B) {
	_, vid := setupBenches(b)
	benchSearch(b, vid, 0.20)
}

// BenchmarkFig8SolutionIntervalSynthetic measures search plus solution
// interval assembly and consumption (Figure 8's subject) on synthetic
// data.
func BenchmarkFig8SolutionIntervalSynthetic(b *testing.B) {
	syn, _ := setupBenches(b)
	var points int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := syn.Queries[i%len(syn.Queries)]
		matches, _, err := syn.DB.Search(q, 0.20)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range matches {
			points += m.Interval.NumPoints()
		}
	}
	_ = points
}

// BenchmarkFig9SolutionIntervalVideo is Figure 9's counterpart.
func BenchmarkFig9SolutionIntervalVideo(b *testing.B) {
	_, vid := setupBenches(b)
	var points int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := vid.Queries[i%len(vid.Queries)]
		matches, _, err := vid.DB.Search(q, 0.20)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range matches {
			points += m.Interval.NumPoints()
		}
	}
	_ = points
}

// BenchmarkFig10ProposedSynthetic and BenchmarkFig10ScanSynthetic are the
// two sides of Figure 10's ratio: the proposed index search vs the
// sequential scan, on identical queries. Dividing their ns/op reproduces
// the figure's series at this scale.
func BenchmarkFig10ProposedSynthetic(b *testing.B) {
	syn, _ := setupBenches(b)
	benchSearch(b, syn, 0.20)
}

func BenchmarkFig10ScanSynthetic(b *testing.B) {
	syn, _ := setupBenches(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := syn.Queries[i%len(syn.Queries)]
		if _, err := syn.DB.SequentialSearch(q, 0.20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ProposedVideo(b *testing.B) {
	_, vid := setupBenches(b)
	benchSearch(b, vid, 0.20)
}

func BenchmarkFig10ScanVideo(b *testing.B) {
	_, vid := setupBenches(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := vid.Queries[i%len(vid.Queries)]
		if _, err := vid.DB.SequentialSearch(q, 0.20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMCost sweeps the partitioning constant Q_k+ε whose
// value (0.3) Section 3.4.3 fixes empirically: it measures partitioning
// cost at each setting.
func BenchmarkAblationMCost(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	seqs := make([]*core.Sequence, 50)
	for i := range seqs {
		s, err := fractal.Generate(rng, 256, fractal.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		seqs[i] = s
	}
	for _, qe := range []float64{0.1, 0.3, 0.9} {
		b.Run(fmt.Sprintf("qe=%.1f", qe), func(b *testing.B) {
			cfg := core.PartitionConfig{QueryExtent: qe, MaxPoints: 64}
			for i := 0; i < b.N; i++ {
				if _, err := core.Partition(seqs[i%len(seqs)], cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFanout measures index range-search latency across
// R*-tree node capacities.
func BenchmarkAblationFanout(b *testing.B) {
	for _, fanout := range []int{8, 32, 0 /* page-derived max */} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			db, err := mdseq.Open(mdseq.Options{Dim: 3, MaxEntries: fanout})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 200; i++ {
				s, err := fractal.Generate(rng, 128, fractal.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Add(s); err != nil {
					b.Fatal(err)
				}
			}
			q, err := fractal.Generate(rng, 48, fractal.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.CandidatesDmbr(q, 0.15); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- scale-out: scatter-gather over hash shards -------------------------

// setupSharded distributes the (scaled) synthetic corpus over n shards.
func setupSharded(b *testing.B, n int) (*mdseq.ShardedDB, []*core.Sequence) {
	b.Helper()
	syn, _ := setupBenches(b)
	seqs := syn.DB.Sequences()
	cloned := make([]*core.Sequence, len(seqs))
	for i, s := range seqs {
		cloned[i] = s.Clone()
	}
	sdb, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, n)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sdb.Close() })
	if _, err := sdb.AddAll(cloned); err != nil {
		b.Fatal(err)
	}
	return sdb, syn.Queries
}

// BenchmarkShardedSearch compares range-search latency across shard
// counts on the same corpus — the scale-out trajectory for BENCH_*.json.
// shards=1 approximates the single-node baseline plus dispatch overhead.
func BenchmarkShardedSearch(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			sdb, queries := setupSharded(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, _, err := sdb.SearchCtx(context.Background(), q, 0.20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedKNN is the kNN counterpart: per-shard top-k with
// running-bound seeding, then the gather-side merge.
func BenchmarkShardedKNN(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			sdb, queries := setupSharded(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := sdb.SearchKNNCtx(context.Background(), q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- observability: registry overhead on the hot path -------------------

// BenchmarkSearchInstrumentation runs the identical three-phase search
// at three instrumentation levels: bare, with a metrics registry wired
// in, and with the full flight-recorder path (a per-query trace through
// SearchCtx plus recorder retention). Metrics are pre-resolved atomic
// operations, so instrumented must stay within ~2% of bare — the
// always-on budget. traced measures what a request pays only when a
// trace rides its context (span records and the retention snapshot);
// that cost is per-request opt-in, not part of the always-on budget,
// and is reported here so regressions in it are visible too.
func BenchmarkSearchInstrumentation(b *testing.B) {
	syn, _ := setupBenches(b)
	seqs := syn.DB.Sequences()
	cloned := make([]*core.Sequence, len(seqs))
	for i, s := range seqs {
		cloned[i] = s.Clone()
	}
	for _, mode := range []string{"bare", "instrumented", "traced"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			db, err := mdseq.Open(mdseq.Options{Dim: 3})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := db.AddAll(cloned); err != nil {
				b.Fatal(err)
			}
			if mode != "bare" {
				db.SetMetrics(mdseq.NewMetricsRegistry())
			}
			rec := obs.NewRecorder(obs.RecorderConfig{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := syn.Queries[i%len(syn.Queries)]
				if mode == "traced" {
					tr := obs.NewTrace()
					rec.Start(tr)
					ctx := obs.WithTrace(context.Background(), tr)
					if _, _, err := db.SearchCtx(ctx, q, 0.20); err != nil {
						b.Fatal(err)
					}
					rec.End(tr)
					continue
				}
				if _, _, err := db.Search(q, 0.20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks of the primitives the figures are built from ---

func BenchmarkDmbr(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rects := make([]geom.Rect, 256)
	for i := range rects {
		lo := geom.Point{rng.Float64() * 0.8, rng.Float64() * 0.8, rng.Float64() * 0.8}
		hi := geom.Point{lo[0] + 0.1, lo[1] + 0.1, lo[2] + 0.1}
		rects[i] = geom.Rect{L: lo, H: hi}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rects[i%256].MinDist(rects[(i+1)%256])
	}
}

func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	s, err := fractal.Generate(rng, 512, fractal.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultPartitionConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Partition(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequenceDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	s1, _ := fractal.Generate(rng, 512, fractal.DefaultConfig())
	s2, _ := fractal.Generate(rng, 64, fractal.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.D(s1, s2)
	}
}

func BenchmarkRTreeInsert(b *testing.B) {
	db, err := mdseq.Open(mdseq.Options{Dim: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := fractal.Generate(rng, 64, fractal.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Add(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVideoFeatureExtraction(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	st, err := video.GenerateStream(rng, 64, video.DefaultStreamConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = video.MeanColorRGB(st.Frames[i%len(st.Frames)])
	}
}
