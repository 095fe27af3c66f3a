package core

// Hot-path equivalence and regression tests: the flat squared-space
// search paths (phase3Hits, segmentQuery, AppendWithinDist-backed phase 2,
// the index-driven kNN, bestAlign) must return byte-identical results to
// the seed implementations they replaced, and a warmed serial range
// search must not allocate. The seed forms — WithinDist, phase3One,
// newDnormCalc, BestAlignment — are retained in-tree and reconstructed
// here as the reference.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// hotDB builds a database of n random-walk sequences in the given
// dimension.
func hotDB(t testing.TB, dim, n int, seed int64) (*Database, []*Sequence) {
	t.Helper()
	db, err := NewDatabase(Options{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]*Sequence, n)
	for i := range seqs {
		s := randWalkSeq(rng, 40+rng.Intn(100), dim)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		seqs[i] = s
	}
	return db, seqs
}

// hotQueries builds a query mix: windows of stored sequences (guaranteed
// matches at small eps) plus fresh random walks.
func hotQueries(seqs []*Sequence, dim int, seed int64) []*Sequence {
	rng := rand.New(rand.NewSource(seed))
	var qs []*Sequence
	for i := 0; i < 6; i++ {
		src := seqs[rng.Intn(len(seqs))]
		n := 16 + rng.Intn(16)
		off := rng.Intn(len(src.Points) - n)
		qs = append(qs, &Sequence{Points: src.Points[off : off+n]})
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, randWalkSeq(rng, 20+rng.Intn(20), dim))
	}
	return qs
}

// searchReference reconstructs the seed Search: phase 2 through the
// visitor-based WithinDist (via CandidatesDmbr), phase 3 through the
// closure-based phase3One, candidates in ascending id order.
func searchReference(t testing.TB, db *Database, q *Sequence, eps float64) []Match {
	t.Helper()
	cand, err := db.CandidatesDmbr(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	qseg, err := NewSegmented(q, db.opts.Partition)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, 0, len(cand))
	for id := range cand {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []Match
	for _, id := range ids {
		m, hit, _ := phase3One(qseg, db.seqs[id], q.Len(), eps)
		m.SeqID = id
		if hit {
			out = append(out, m)
		}
	}
	return out
}

// matchesEqual asserts two match sets are byte-identical: same ids in the
// same order, bit-equal MinDnorm, identical interval ranges.
func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, reference %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.SeqID != w.SeqID || g.Seq != w.Seq {
			t.Fatalf("%s: match %d is seq %d, reference %d", label, i, g.SeqID, w.SeqID)
		}
		if math.Float64bits(g.MinDnorm) != math.Float64bits(w.MinDnorm) {
			t.Fatalf("%s: match %d MinDnorm %v, reference %v (not bit-identical)",
				label, i, g.MinDnorm, w.MinDnorm)
		}
		if !reflect.DeepEqual(g.Interval.Ranges(), w.Interval.Ranges()) {
			t.Fatalf("%s: match %d interval %v, reference %v", label, i, g.Interval.Ranges(), w.Interval.Ranges())
		}
	}
}

// TestSearchMatchesReference checks the single and the batch range
// searches against the seed reconstruction across dimensions, thresholds,
// and a mixed query workload — results must be byte-identical.
func TestSearchMatchesReference(t *testing.T) {
	for _, dim := range []int{2, 3, 4, 8} {
		db, seqs := hotDB(t, dim, 50, int64(200+dim))
		qs := hotQueries(seqs, dim, int64(dim))
		for _, eps := range []float64{0.05, 0.15, 0.3, 0.6} {
			var batchIn []*Sequence
			var refs [][]Match
			for qi, q := range qs {
				want := searchReference(t, db, q, eps)
				got, st, err := db.Search(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("dim %d eps %g query %d serial", dim, eps, qi), got, want)
				if st.CandidatesDmbr < len(want) {
					t.Fatalf("stats: %d candidates < %d matches", st.CandidatesDmbr, len(want))
				}
				batchIn = append(batchIn, q)
				refs = append(refs, want)
			}
			bout, _, err := db.SearchBatchCtx(context.Background(), batchIn, eps)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range batchIn {
				matchesEqual(t, fmt.Sprintf("dim %d eps %g query %d batch", dim, eps, qi), bout[qi], refs[qi])
			}
		}
	}
}

// TestSegmentQueryMatchesPartition checks that the pooled columnar query
// segmentation reproduces Partition exactly: same ranges, same bounds.
func TestSegmentQueryMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := DefaultPartitionConfig()
	sc := getScratch()
	defer putScratch(sc)
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(8)
		s := randWalkSeq(rng, 1+rng.Intn(200), dim)
		want, err := Partition(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc.segmentQuery(s, cfg)
		if len(sc.qmbrs) != len(want) {
			t.Fatalf("trial %d: %d MBRs, Partition %d", trial, len(sc.qmbrs), len(want))
		}
		for j := range want {
			g, w := sc.qmbrs[j], want[j]
			if g.Start != w.Start || g.End != w.End {
				t.Fatalf("trial %d MBR %d: range [%d,%d), Partition [%d,%d)",
					trial, j, g.Start, g.End, w.Start, w.End)
			}
			if !g.Rect.Equal(w.Rect) {
				t.Fatalf("trial %d MBR %d: rect %v, Partition %v", trial, j, g.Rect, w.Rect)
			}
		}
	}
}

// knnReference is what a bounded kNN search must return, computed from
// values alone: BestAlignment against every live sequence, those within
// the bound ordered by (Dist, SeqID), the first k.
func knnReference(t testing.TB, db *Database, q *Sequence, k int, bound float64) []KNNResult {
	t.Helper()
	var out []KNNResult
	for id, g := range db.seqs {
		if g == nil {
			continue
		}
		if off, dist := BestAlignment(q.Points, g.Seq.Points); dist <= bound {
			out = append(out, KNNResult{SeqID: uint32(id), Seq: g.Seq, Dist: dist, Offset: off})
		}
	}
	slices.SortFunc(out, func(a, b KNNResult) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SeqID, b.SeqID))
	})
	return out[:min(k, len(out))]
}

// TestKNNMatchesReference checks the kNN path (index walk, weighted Dnorm
// bounds, early-abandoning alignment) against the exhaustive reference,
// bounded and unbounded.
func TestKNNMatchesReference(t *testing.T) {
	for _, dim := range []int{2, 4, 8} {
		db, seqs := hotDB(t, dim, 60, int64(300+dim))
		qs := hotQueries(seqs, dim, int64(50+dim))
		for _, k := range []int{1, 3, 10} {
			for _, bound := range []float64{math.Inf(1), 0.4, 0.1} {
				for qi, q := range qs {
					want := knnReference(t, db, q, k, bound)
					got, err := knnBounded(context.Background(), db, q, k, boundAt(bound), nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("dim %d k %d bound %g query %d: %d results, reference %d",
							dim, k, bound, qi, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.SeqID != w.SeqID || g.Offset != w.Offset ||
							math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
							t.Fatalf("dim %d k %d bound %g query %d result %d: got {seq %d off %d dist %v}, reference {seq %d off %d dist %v}",
								dim, k, bound, qi, i, g.SeqID, g.Offset, g.Dist, w.SeqID, w.Offset, w.Dist)
						}
					}
				}
			}
		}
	}
}

// TestHotpathAllocs is the allocation gate: a repeated no-match range
// search on a warmed scratch pool and flat node cache must not allocate
// at all. (A matching query necessarily allocates its result slice and
// intervals; the no-match case isolates the machinery itself.)
func TestHotpathAllocs(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool.Put intentionally drops items
		// at random (see sync/pool.go), so the warmed scratch cannot be
		// guaranteed to be reused and the zero-alloc measurement is
		// meaningless. The gate still runs in every non-race invocation.
		t.Skip("sync.Pool deliberately drops Puts under -race; alloc gate needs a non-race build")
	}
	db, _ := hotDB(t, 4, 40, 7)
	// A GC cycle mid-measurement evicts the warmed sync.Pool scratch, and
	// the repopulating allocation would be charged to Search. That is a
	// pool artifact, not a hot-path allocation, so GC is held off for the
	// duration of the gate.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A query far outside the data's unit cube: phase 2 prunes everything,
	// every phase still runs.
	rng := rand.New(rand.NewSource(9))
	q := randWalkSeq(rng, 24, 4)
	for i := range q.Points {
		for k := range q.Points[i] {
			q.Points[i][k] += 50
		}
	}
	// Warm: pool scratch, flat node cache, metric paths.
	for i := 0; i < 3; i++ {
		ms, _, err := db.Search(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Fatal("query unexpectedly matched; the alloc gate needs a no-match query")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := db.Search(q, 0.3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed no-match Search allocates %.1f times per run, want 0", allocs)
	}

	// A candidate-producing query must also stay allocation-free as long
	// as nothing matches: use a tiny eps so phase 3 runs but emits nothing.
	q2 := randWalkSeq(rng, 24, 4)
	probe := func(eps float64) int {
		ms, _, err := db.Search(q2, eps)
		if err != nil {
			t.Fatal(err)
		}
		return len(ms)
	}
	eps := 0.25
	for probe(eps) > 0 && eps > 1e-6 {
		eps /= 4
	}
	cand, err := db.CandidatesDmbr(q2, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cand) > 0 {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := db.Search(q2, eps); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warmed no-match Search with %d phase-3 candidates allocates %.1f times per run, want 0",
				len(cand), allocs)
		}
	}
}

// TestHotpathSpeedup is the acceptance measurement for the squared-space
// kernels: the same phase-2+3 range workload timed through the seed
// reconstruction (visitor search, per-pair dnormCalc allocation, closure
// sweep) and through Database.Search.
func TestHotpathSpeedup(t *testing.T) {
	const dim, nseq = 4, 150
	db, seqs := hotDB(t, dim, nseq, 13)
	qs := hotQueries(seqs, dim, 14)
	const eps = 0.3

	runSeed := func() {
		for _, q := range qs {
			searchReference(t, db, q, eps)
		}
	}
	runFlat := func() {
		for _, q := range qs {
			if _, _, err := db.Search(q, eps); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm both paths (pager pool, flat cache, scratch pool).
	runSeed()
	runFlat()

	const rounds = 5
	measure := func(fn func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			fn()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	seedDur := measure(runSeed)
	flatDur := measure(runFlat)
	speedup := float64(seedDur) / float64(flatDur)
	t.Logf("dim=%d corpus=%d queries=%d eps=%g: seed %v, flat %v, speedup %.2fx",
		dim, nseq, len(qs), eps, seedDur, flatDur, speedup)
	if speedup < 1.5 {
		t.Errorf("hot-path speedup %.2fx < 1.5x", speedup)
	}
}

// BenchmarkRangeSearch compares the seed reconstruction and the flat path
// across dimensions and corpus sizes with benchstat-friendly names:
// path=seed|flat / dim=D / n=N.
func BenchmarkRangeSearch(b *testing.B) {
	for _, dim := range []int{2, 4, 8, 16} {
		for _, n := range []int{50, 200} {
			db, seqs := hotDB(b, dim, n, int64(dim*n))
			qs := hotQueries(seqs, dim, int64(n))
			const eps = 0.25
			b.Run(fmt.Sprintf("path=seed/dim=%d/n=%d", dim, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					searchReference(b, db, qs[i%len(qs)], eps)
				}
			})
			b.Run(fmt.Sprintf("path=flat/dim=%d/n=%d", dim, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := db.Search(qs[i%len(qs)], eps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKNN compares the exhaustive reference and the indexed path.
func BenchmarkKNN(b *testing.B) {
	for _, dim := range []int{2, 4, 8} {
		db, seqs := hotDB(b, dim, 100, int64(900+dim))
		qs := hotQueries(seqs, dim, int64(dim))
		b.Run(fmt.Sprintf("path=scan/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				knnReference(b, db, qs[i%len(qs)], 5, math.Inf(1))
			}
		})
		b.Run(fmt.Sprintf("path=index/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.SearchKNN(qs[i%len(qs)], 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
