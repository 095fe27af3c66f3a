package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"repro/internal/cache"
)

func labelf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func TestParseMetric(t *testing.T) {
	for _, name := range []string{"", "d", "D"} {
		m, err := ParseMetric(name, -1)
		if err != nil {
			t.Fatalf("ParseMetric(%q): %v", name, err)
		}
		if _, ok := m.(MetricD); !ok {
			t.Fatalf("ParseMetric(%q) = %T, want MetricD", name, m)
		}
	}
	for _, name := range []string{"dtw", "DTW"} {
		m, err := ParseMetric(name, 7)
		if err != nil {
			t.Fatalf("ParseMetric(%q): %v", name, err)
		}
		mt, ok := m.(MetricDTW)
		if !ok || mt.Window != 7 {
			t.Fatalf("ParseMetric(%q) = %#v, want MetricDTW{7}", name, m)
		}
	}
	if _, err := ParseMetric("dtw", -2); err == nil {
		t.Error("window -2 accepted")
	}
	if _, err := ParseMetric("manhattan", -1); err == nil {
		t.Error("unknown metric name accepted")
	}
}

// TestMetricFingerprintsDistinct proves metrics that define different
// result sets have different cache identities: D, unconstrained DTW, and
// each DTW window are all distinct.
func TestMetricFingerprintsDistinct(t *testing.T) {
	ms := []Metric{MetricD{}, MetricDTW{Window: -1}, MetricDTW{Window: 0}, MetricDTW{Window: 5}}
	type fp struct {
		id    byte
		param uint64
	}
	seen := map[fp]int{}
	for i, m := range ms {
		id, param := m.fingerprint()
		k := fp{id, param}
		if j, dup := seen[k]; dup {
			t.Fatalf("metrics %d and %d share fingerprint (%c, %d)", j, i, id, param)
		}
		seen[k] = i
	}
}

// metricCorpus builds a database of nseq random walks with varied lengths
// in the given dimension — lengths deliberately unequal so the DTW
// window-vs-length-difference edge cases are exercised.
func metricCorpus(t *testing.T, dim, nseq int, seed int64) (*Database, []*Sequence, *rand.Rand) {
	t.Helper()
	db := newTestDB(t, dim)
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]*Sequence, nseq)
	for i := range seqs {
		s := randWalkSeq(rng, 20+rng.Intn(100), dim)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		seqs[i] = s
	}
	return db, seqs, rng
}

// sameMetricMatches asserts two metric result sets are identical: same
// ids in the same order, bit-identical distances.
func sameMetricMatches(t *testing.T, label string, got, want []MetricMatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].SeqID != want[i].SeqID {
			t.Fatalf("%s: match %d is sequence %d, want %d", label, i, got[i].SeqID, want[i].SeqID)
		}
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: match %d (seq %d) dist %v, want bit-identical %v",
				label, i, got[i].SeqID, got[i].Dist, want[i].Dist)
		}
	}
}

// TestMetricDTWRangeNoFalseDismissal is the central equivalence proof for
// the DTW index path: across dimensions, window widths (unconstrained,
// degenerate, narrow, wide), and queries of lengths unequal to the stored
// sequences, the envelope-pruned indexed range search returns exactly the
// exhaustive-scan answer, bit for bit. Any false dismissal by the index
// bound or LB_Keogh, and any inexactness introduced by early abandoning,
// would break it.
func TestMetricDTWRangeNoFalseDismissal(t *testing.T) {
	for _, dim := range []int{2, 4, 8} {
		db, seqs, rng := metricCorpus(t, dim, 40, int64(100+dim))
		for _, window := range []int{-1, 0, 3, 20} {
			mt := MetricDTW{Window: window}
			for trial := 0; trial < 6; trial++ {
				src := seqs[rng.Intn(len(seqs))]
				qlen := 10 + rng.Intn(src.Len()-10)
				q := &Sequence{Label: "q", Points: src.Points[:qlen]}
				eps := 0.05 + rng.Float64()*0.4
				got, _, err := db.SearchMetric(q, eps, mt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := db.SequentialSearchMetric(q, eps, mt)
				if err != nil {
					t.Fatal(err)
				}
				label := labelf("dim=%d window=%d trial=%d eps=%g", dim, window, trial, eps)
				sameMetricMatches(t, label, got, want)
			}
		}
	}
}

// TestMetricDRangeNoFalseDismissal is the same equivalence for MetricD:
// the Dnorm-filtered, exact-refined indexed answer equals the exhaustive
// exact-distance scan.
func TestMetricDRangeNoFalseDismissal(t *testing.T) {
	db, seqs, rng := metricCorpus(t, 3, 40, 11)
	for trial := 0; trial < 10; trial++ {
		src := seqs[rng.Intn(len(seqs))]
		qlen := 10 + rng.Intn(src.Len()-10)
		q := &Sequence{Label: "q", Points: src.Points[:qlen]}
		eps := 0.05 + rng.Float64()*0.4
		got, _, err := db.SearchMetric(q, eps, MetricD{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.SequentialSearchMetric(q, eps, MetricD{})
		if err != nil {
			t.Fatal(err)
		}
		sameMetricMatches(t, labelf("trial=%d eps=%g", trial, eps), got, want)
	}
}

// TestMetricDTWKNNNoFalseDismissal proves the best-first DTW kNN against
// brute force: exact DTW to every alignable sequence, sorted, truncated
// to k. Results are compared as (dist, id)-sorted lists so the assertion
// is insensitive to tie order but still bit-exact on distances.
func TestMetricDTWKNNNoFalseDismissal(t *testing.T) {
	for _, dim := range []int{2, 4, 8} {
		db, seqs, rng := metricCorpus(t, dim, 35, int64(200+dim))
		for _, window := range []int{-1, 0, 4, 25} {
			mt := MetricDTW{Window: window}
			for trial := 0; trial < 4; trial++ {
				src := seqs[rng.Intn(len(seqs))]
				qlen := 10 + rng.Intn(src.Len()-10)
				q := &Sequence{Label: "q", Points: src.Points[:qlen]}
				k := 1 + rng.Intn(8)
				got, err := db.SearchKNNMetric(q, k, mt)
				if err != nil {
					t.Fatal(err)
				}
				// Brute force: every finite exact distance, ranked.
				all, err := db.SequentialSearchMetric(q, math.MaxFloat64, mt)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(all, func(a, b int) bool {
					if all[a].Dist != all[b].Dist {
						return all[a].Dist < all[b].Dist
					}
					return all[a].SeqID < all[b].SeqID
				})
				if len(all) > k {
					all = all[:k]
				}
				label := labelf("dim=%d window=%d trial=%d k=%d", dim, window, trial, k)
				if len(got) != len(all) {
					t.Fatalf("%s: %d neighbors, want %d", label, len(got), len(all))
				}
				sort.Slice(got, func(a, b int) bool {
					if got[a].Dist != got[b].Dist {
						return got[a].Dist < got[b].Dist
					}
					return got[a].SeqID < got[b].SeqID
				})
				for i := range all {
					if got[i].SeqID != all[i].SeqID ||
						math.Float64bits(got[i].Dist) != math.Float64bits(all[i].Dist) {
						t.Fatalf("%s: neighbor %d = (%d, %v), want (%d, %v)",
							label, i, got[i].SeqID, got[i].Dist, all[i].SeqID, all[i].Dist)
					}
					if got[i].Offset != 0 {
						t.Fatalf("%s: DTW neighbor %d has offset %d, want 0", label, i, got[i].Offset)
					}
				}
			}
		}
	}
}

// TestMetricDTWLowerBoundsUnderestimate is the direct Lemma-style check
// behind the equivalence: for random queries and sequences, the envelope
// index bound and LB_Keogh never exceed the exact normalized DTW
// distance, and the index bound is +Inf exactly when the window admits no
// alignment.
func TestMetricDTWLowerBoundsUnderestimate(t *testing.T) {
	const tol = 1e-9
	for _, dim := range []int{2, 5} {
		db, seqs, rng := metricCorpus(t, dim, 25, int64(300+dim))
		db.mu.RLock()
		for _, window := range []int{-1, 0, 2, 10} {
			mt := MetricDTW{Window: window}
			for trial := 0; trial < 5; trial++ {
				src := seqs[rng.Intn(len(seqs))]
				qlen := 10 + rng.Intn(src.Len()-10)
				q := &Sequence{Label: "q", Points: src.Points[:qlen]}
				sc := getScratch()
				sc.fillQueryFlat(q)
				ds := &sc.dtw
				ds.resetEnv()
				ds.buildEnvelopes(sc.qflat, q.Len(), dim, window)
				for _, g := range db.seqs {
					if g == nil {
						continue
					}
					lb := ds.dtwIndexLB(g)
					exact := sc.dtwSeq(mt, sc.qflat, g, dim, math.Inf(1), nil)
					if math.IsInf(lb, 1) != math.IsInf(exact, 1) {
						t.Fatalf("dim=%d window=%d: index bound inf=%v but exact inf=%v (lens %d vs %d)",
							dim, window, math.IsInf(lb, 1), math.IsInf(exact, 1), q.Len(), g.Seq.Len())
					}
					if math.IsInf(exact, 1) {
						continue
					}
					if lb > exact+tol {
						t.Fatalf("dim=%d window=%d: index bound %v exceeds exact DTW %v", dim, window, lb, exact)
					}
					if keogh := ds.lbKeogh(g, math.Inf(1)); keogh > exact+tol {
						t.Fatalf("dim=%d window=%d: LB_Keogh %v exceeds exact DTW %v", dim, window, keogh, exact)
					}
				}
				putScratch(sc)
			}
		}
		db.mu.RUnlock()
	}
}

// TestMetricDTWWindowExcludesUnalignable: with a window narrower than
// every length difference, no stored sequence aligns and both query paths
// agree on the empty answer; sequences of exactly the query's length
// remain eligible at window 0.
func TestMetricDTWWindowExcludesUnalignable(t *testing.T) {
	db := newTestDB(t, 2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if _, err := db.Add(randWalkSeq(rng, 60+i*5, 2)); err != nil {
			t.Fatal(err)
		}
	}
	q := randWalkSeq(rng, 30, 2) // 30 vs 60.. — difference ≥ 30 everywhere
	mt := MetricDTW{Window: 4}
	got, _, err := db.SearchMetric(q, 10, mt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("window 4 with length gaps ≥ 30 matched %d sequences", len(got))
	}
	nn, err := db.SearchKNNMetric(q, 5, mt)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 0 {
		t.Fatalf("kNN returned %d unalignable sequences", len(nn))
	}
}

// TestMetricSearchConcurrent runs the DTW equivalence from many
// goroutines at once — under -race this doubles as the data-race proof
// for the metric read path (shared tree, shared scratch pool, per-query
// envelopes).
func TestMetricSearchConcurrent(t *testing.T) {
	db, seqs, rng := metricCorpus(t, 3, 30, 17)
	type job struct {
		q   *Sequence
		eps float64
		mt  MetricDTW
	}
	jobs := make([]job, 12)
	for i := range jobs {
		src := seqs[rng.Intn(len(seqs))]
		qlen := 10 + rng.Intn(src.Len()-10)
		jobs[i] = job{
			q:   &Sequence{Label: "q", Points: src.Points[:qlen]},
			eps: 0.05 + rng.Float64()*0.3,
			mt:  MetricDTW{Window: []int{-1, 0, 5}[i%3]},
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			got, _, err := db.SearchMetric(j.q, j.eps, j.mt)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := db.SequentialSearchMetric(j.q, j.eps, j.mt)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("concurrent: %d matches, want %d", len(got), len(want))
				return
			}
			for i := range want {
				if got[i].SeqID != want[i].SeqID ||
					math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Errorf("concurrent: match %d differs", i)
					return
				}
			}
		}(j)
	}
	wg.Wait()
}

// TestMetricCacheCrossMetricIsolation is the staleness regression for the
// fingerprint change: the same query and threshold under D, unconstrained
// DTW, and two different DTW windows are four different questions, and
// the cache must never serve one's answer for another. Before metric
// identity entered the fingerprint, the second metric's query aliased the
// first's cached result.
func TestMetricCacheCrossMetricIsolation(t *testing.T) {
	db, seqs, rng := metricCorpus(t, 3, 30, 23)
	db.SetCache(cache.New(cache.Config{}))
	src := seqs[rng.Intn(len(seqs))]
	q := &Sequence{Label: "q", Points: src.Points[:20]}
	const eps = 0.35

	metrics := []Metric{MetricD{}, MetricDTW{Window: -1}, MetricDTW{Window: 2}, MetricDTW{Window: 8}}
	first := make([][]MetricMatch, len(metrics))
	for i, m := range metrics {
		ms, st, err := db.SearchMetric(q, eps, m)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			t.Fatalf("metric %d: first query flagged as cache hit — aliased an earlier metric's entry", i)
		}
		first[i] = ms
	}
	// Re-asking each is a hit, and each hit is that metric's own answer.
	for i, m := range metrics {
		ms, st, err := db.SearchMetric(q, eps, m)
		if err != nil {
			t.Fatal(err)
		}
		if !st.CacheHit {
			t.Fatalf("metric %d: repeat query missed the cache", i)
		}
		sameMetricMatches(t, labelf("cached metric %d", i), ms, first[i])
		want, err := db.SequentialSearchMetric(q, eps, m)
		if err != nil {
			t.Fatal(err)
		}
		sameMetricMatches(t, labelf("cached-vs-scan metric %d", i), ms, want)
	}
	// The plain Search path must also be unaffected by metric entries.
	if _, st, err := db.Search(q, eps); err != nil {
		t.Fatal(err)
	} else if st.CacheHit {
		t.Fatal("Search aliased a metric cache entry")
	}
}

// TestMetricCacheInvalidatedByWrite: a write that lands inside the cached
// DTW query's region evicts the entry, so the refreshed answer includes
// the new sequence.
func TestMetricCacheInvalidatedByWrite(t *testing.T) {
	db, seqs, _ := metricCorpus(t, 3, 20, 29)
	db.SetCache(cache.New(cache.Config{}))
	src := seqs[0]
	q := &Sequence{Label: "q", Points: src.Points[:25]}
	mt := MetricDTW{Window: -1}
	const eps = 0.5
	before, _, err := db.SearchMetric(q, eps, mt)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a near-duplicate of the query — distance ~0, inside ε.
	dup := &Sequence{Label: "dup", Points: src.Points[:25]}
	if _, err := db.Add(dup); err != nil {
		t.Fatal(err)
	}
	after, st, err := db.SearchMetric(q, eps, mt)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("query served from cache across an in-region write")
	}
	if len(after) != len(before)+1 {
		t.Fatalf("after write: %d matches, want %d", len(after), len(before)+1)
	}
}

// TestMetricDTWSearchAllocs is the DTW-path allocation gate: a warmed
// repeated no-match metric search — envelopes, tree probe, pruning
// ladder — runs entirely out of the pooled scratch.
func TestMetricDTWSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops Puts under -race; alloc gate needs a non-race build")
	}
	db := newTestDB(t, 4)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		if _, err := db.Add(randWalkSeq(rng, 40+rng.Intn(40), 4)); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	q := randWalkSeq(rng, 24, 4)
	for i := range q.Points {
		for k := range q.Points[i] {
			q.Points[i][k] += 50
		}
	}
	mt := MetricDTW{Window: 6}
	for i := 0; i < 3; i++ {
		ms, _, err := db.SearchMetric(q, 0.3, mt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Fatal("query unexpectedly matched; the alloc gate needs a no-match query")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := db.SearchMetric(q, 0.3, mt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed no-match DTW SearchMetric allocates %.1f times per run, want 0", allocs)
	}
}

// TestDTWRangeKeepsTieAtEps is the regression test for a false dismissal
// at eps == dist: the range search with ε set to a sequence's own scan
// distance must return that sequence. The abandon tests of the DP and of
// LB_Keogh compare an unnormalized sum with the rounded product ε·denom,
// and a sum one ulp above that product can still divide back to exactly ε;
// window 0 is the sharpest case for LB_Keogh, whose bound there equals the
// distance term for term.
func TestDTWRangeKeepsTieAtEps(t *testing.T) {
	db := newTestDB(t, 3)
	rng := rand.New(rand.NewSource(4401))
	seqs := make([]*Sequence, 200)
	for i := range seqs {
		seqs[i] = randWalkSeq(rng, 40+rng.Intn(60), 3)
		if _, err := db.Add(seqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, window := range []int{16, 0} {
		mt := MetricDTW{Window: window}
		ties, dropped := 0, 0
		for trial := 0; trial < 200; trial++ {
			q := jitterSeq(rng, seqs[rng.Intn(len(seqs))], 0.02)
			scan, err := db.SequentialSearchMetric(q, 0.08, mt)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range scan {
				ties++
				got, _, err := db.SearchMetric(q, want.Dist, mt)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, m := range got {
					found = found || m.SeqID == want.SeqID
				}
				if !found {
					dropped++
				}
			}
		}
		if ties == 0 {
			t.Fatalf("window %d: the scan matched nothing; the test tests nothing", window)
		}
		if dropped > 0 {
			t.Errorf("window %d: %d of %d sequences dismissed at eps == their own scan distance", window, dropped, ties)
		}
	}
}
