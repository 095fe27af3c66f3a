package core

// Hot-path equivalence and regression tests: the flat squared-space
// search paths (phase3Hits, segmentQuery, AppendWithinDist-backed phase 2,
// the index-driven kNN, bestAlign) must return byte-identical results to
// the seed implementations they replaced, and a warmed serial range
// search must not allocate. The seed forms — WithinDist, BestAlignment,
// and phase3One over dnormCalc (dnormref_test.go) — are the reference.

import (
	"cmp"
	"context"
	"errors"
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
		m, hit := phase3One(qseg, db.seqs[id], q.Len(), eps)
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

// TestSegmentQueryMatchesPartition checks that the prepared query's columnar
// segmentation reproduces Partition exactly: same ranges, same bounds.
func TestSegmentQueryMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := DefaultPartitionConfig()
	var p Prepared
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(8)
		s := randWalkSeq(rng, 1+rng.Intn(200), dim)
		want, err := Partition(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.segmentQuery(s, cfg)
		if len(p.qmbrs) != len(want) {
			t.Fatalf("trial %d: %d MBRs, Partition %d", trial, len(p.qmbrs), len(want))
		}
		for j := range want {
			g, w := p.qmbrs[j], want[j]
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
		if off, dist := BestAlignment(q.Slice(0, q.Len()), g.Seq.Slice(0, g.Seq.Len())); dist <= bound {
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

// allocCorpus is the corpus the answer-size tests share: 400 walks, and one
// query with the two thresholds at which few (~30) and most (>= 300) of
// them match.
func allocCorpus(t testing.TB) (db *Database, q *Sequence, few, most float64) {
	t.Helper()
	db, seqs := hotDB(t, 3, 400, 31)
	q = &Sequence{Points: seqs[5].Points[10:42]}
	count := func(eps float64) int {
		ms, _, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		return len(ms)
	}
	few, most = 0.3, 0.3
	for count(few) > 40 {
		few *= 0.9
	}
	for count(most) < 300 {
		most *= 1.1
	}
	if n := count(few); n < 10 {
		t.Fatalf("eps %g matches %d sequences; the corpus needs a threshold matching 10..40", few, n)
	}
	return db, q, few, most
}

// TestRangeAnswerAllocs is the allocation gate for a matching search: a
// warmed Do(Range) allocates the answer's list and its interval slab — a
// constant, not one per match — whether some 30 or over 300 sequences
// match, and a warmed batch pays that constant per query.
func TestRangeAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops Puts under -race; alloc gate needs a non-race build")
	}
	db, q, few, most := allocCorpus(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	const perAnswer = 6
	batch := make([]*Sequence, 8)
	for i := range batch {
		batch[i] = &Sequence{Points: q.Points[i : i+24]}
	}
	var batchAllocs [2]float64
	for ei, eps := range []float64{few, most} {
		var matched int
		run := func() {
			res, err := db.Do(ctx, Query{Seq: q, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			matched = len(res.Matches)
		}
		run()
		allocs := testing.AllocsPerRun(50, run)
		t.Logf("eps %.3f: %d matches, %.0f allocs per Do", eps, matched, allocs)
		if allocs > perAnswer {
			t.Errorf("eps %.3f: warmed Do with %d matches allocates %.0f times, want <= %d", eps, matched, allocs, perAnswer)
		}

		runBatch := func() {
			outs, _, err := db.SearchBatchCtx(ctx, batch, eps)
			if err != nil {
				t.Fatal(err)
			}
			matched = 0
			for _, ms := range outs {
				matched += len(ms)
			}
		}
		runBatch()
		batchAllocs[ei] = testing.AllocsPerRun(20, runBatch)
		t.Logf("eps %.3f: batch of %d, %d matches, %.0f allocs", eps, len(batch), matched, batchAllocs[ei])
	}
	// What a batch allocates besides its answers — the queries'
	// segmentations, the probe table, the per-query bookkeeping — does not
	// depend on how much matches, so the two thresholds may differ by the
	// answers' constant only.
	if extra := batchAllocs[1] - batchAllocs[0]; extra > float64(perAnswer*len(batch)) {
		t.Errorf("batch allocates %.0f times at the wide threshold and %.0f at the narrow one; the difference must stay <= %d per query",
			batchAllocs[1], batchAllocs[0], perAnswer)
	}
}

// TestSortedIDsMatchesSort holds the bitmap ordering pass to slices.Sort
// over duplicate-free id sets of every shape, on one scratch reused across
// id spaces of different sizes, and checks the pool invariant after each:
// the bitmap is all-zero, also after a search abandoned halfway.
func TestSortedIDsMatchesSort(t *testing.T) {
	sc := new(searchScratch)
	allZero := func(label string) {
		t.Helper()
		for _, words := range [][]uint64{sc.idBits[:cap(sc.idBits)], sc.hits[:cap(sc.hits)]} {
			for w, x := range words {
				if x != 0 {
					t.Fatalf("%s: word %d of a pooled table is %#x, want 0", label, w, x)
				}
			}
		}
	}
	check := func(label string, nseq int, ids []uint32) {
		t.Helper()
		sc.beginHits(nseq, 1)
		for _, id := range ids {
			if !sc.firstHit(id) {
				t.Fatalf("%s: id %d generated twice", label, id)
			}
		}
		sc.sortIDs()
		want := slices.Clone(ids)
		slices.Sort(want)
		if !slices.Equal(sc.ids, want) {
			t.Fatalf("%s: sortIDs left %v, slices.Sort %v", label, sc.ids, want)
		}
		sc.clearHits()
		allZero(label)
	}
	all := func(n int) []uint32 {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(n - 1 - i)
		}
		return ids
	}
	check("empty", 100, nil)
	check("one", 100, []uint32{37})
	check("two descending", 100, []uint32{99, 0})
	check("two in one word", 100, []uint32{70, 65})
	check("dense", 1000, all(1000))
	check("dense, nseq not a multiple of 64", 130, all(130))
	check("last id", 130, []uint32{129, 3, 64, 63, 128})
	check("one sequence", 1, []uint32{0})
	check("sparse", 1<<20, []uint32{1<<20 - 1, 0, 1 << 19, 77, 1 << 10})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		nseq := 1 + rng.Intn(3000)
		ids := make([]uint32, 0, nseq)
		for _, id := range rng.Perm(nseq)[:rng.Intn(nseq+1)] {
			ids = append(ids, uint32(id))
		}
		check(fmt.Sprintf("trial %d (nseq %d, %d ids)", trial, nseq, len(ids)), nseq, ids)
	}

	// A search abandoned inside phase 2 or phase 3 leaves ids and hit rows
	// behind for clearHits (putScratch) to take back, and no bit in the
	// bitmap.
	db, q, _, most := allocCorpus(t)
	search := func(cancelAt int) (polls int, err error) {
		ctx := &pollCtx{Context: context.Background(), cancelAt: cancelAt}
		pq, own, err := Prepare(Query{Seq: q, Eps: most}, db.Dim(), db.PartitionConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer own.Release()
		_, err = db.rangePhases(ctx, pq, sc, new(SearchStats), nil)
		sc.clearHits()
		allZero(fmt.Sprintf("after a search cancelled at poll %d", cancelAt))
		return ctx.polls, err
	}
	total, err := search(1 << 30)
	if err != nil || total < 4 {
		t.Fatalf("uncancelled search: %d polls, err = %v; want several polls in each phase", total, err)
	}
	for cancelAt := 1; cancelAt <= total; cancelAt++ {
		if _, err := search(cancelAt); !errors.Is(err, context.Canceled) {
			t.Fatalf("search cancelled at poll %d of %d: err = %v", cancelAt, total, err)
		}
	}
}

// answerCopy is a deep copy of a range answer's values: everything of a
// Match that lives in memory the answer owns.
type answerCopy struct {
	id       uint32
	minDnorm uint64
	ranges   []PointRange
}

func copyAnswer(ms []Match) []answerCopy {
	out := make([]answerCopy, len(ms))
	for i, m := range ms {
		out[i] = answerCopy{m.SeqID, math.Float64bits(m.MinDnorm), slices.Clone(m.Interval.Ranges())}
	}
	return out
}

// sameAnswer asserts ms still holds the values of its copy, bit for bit.
func sameAnswer(t *testing.T, label string, ms []Match, want []answerCopy) {
	t.Helper()
	for i, m := range ms {
		w := want[i]
		if m.SeqID != w.id || math.Float64bits(m.MinDnorm) != w.minDnorm || !slices.Equal(m.Interval.Ranges(), w.ranges) {
			t.Fatalf("%s: match %d is {%d %v %v}, was {%d %v %v}", label, i,
				m.SeqID, m.MinDnorm, m.Interval.Ranges(), w.id, math.Float64frombits(w.minDnorm), w.ranges)
		}
	}
}

// answerOwnsItsMemory is the aliasing property of a range answer: it is
// untouched by later searches recycling the scratch it was computed in
// (churn runs them, on this goroutine), and growing one match's interval
// past its end — in the middle of the answer's shared slab, and at its very
// end — changes no other match.
func answerOwnsItsMemory(t *testing.T, label string, ms []Match, churn func()) {
	t.Helper()
	if len(ms) < 300 {
		t.Fatalf("%s: %d matches, the property needs >= 300", label, len(ms))
	}
	want := copyAnswer(ms)
	churn()
	sameAnswer(t, label+" after 50 searches", ms, want)
	for _, i := range []int{len(ms) / 2, len(ms) - 1} {
		rs := ms[i].Interval.Ranges()
		end := rs[len(rs)-1].End
		ms[i].Interval.Add(PointRange{Start: end + 5, End: end + 9})
		want[i].ranges = append(want[i].ranges, PointRange{Start: end + 5, End: end + 9})
		sameAnswer(t, fmt.Sprintf("%s after growing match %d", label, i), ms, want)
	}
}

// TestAnswerOwnsItsMemory runs the property on a Do answer and on a batch
// answer; internal/txn runs it on an answer merged with a delta.
func TestAnswerOwnsItsMemory(t *testing.T) {
	db, q, few, most := allocCorpus(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	churn := func() {
		for i := 0; i < 50; i++ {
			if _, _, err := db.Search(randWalkSeq(rng, 20+rng.Intn(40), 3), []float64{few, most}[i%2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := db.Do(ctx, Query{Seq: q, Eps: most})
	if err != nil {
		t.Fatal(err)
	}
	answerOwnsItsMemory(t, "Do", res.Matches, churn)

	outs, _, err := db.SearchBatchCtx(ctx, []*Sequence{{Points: q.Points[:24]}, q, {Points: q.Points[4:]}}, most)
	if err != nil {
		t.Fatal(err)
	}
	answerOwnsItsMemory(t, "batch", outs[1], churn)
}

// BenchmarkRangeAnswer is a matching range search on the Table 2 synthetic
// corpus at quarter scale (400 walks, lengths 56 to 512), at a threshold
// where a few sequences match and one where most do: allocs/op and B/op are
// the cost of the answer.
func BenchmarkRangeAnswer(b *testing.B) {
	db, err := NewDatabase(Options{Dim: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(2))
	var qs []*Sequence
	for i := 0; i < 400; i++ {
		s := randWalkSeq(rng, 56+rng.Intn(457), 3)
		if _, err := db.Add(s); err != nil {
			b.Fatal(err)
		}
		if i%50 == 0 {
			qs = append(qs, &Sequence{Points: s.Points[8:40]})
		}
	}
	for _, eps := range []float64{0.05, 0.20} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			b.ReportAllocs()
			matches := 0
			for i := 0; i < b.N; i++ {
				ms, _, err := db.Search(qs[i%len(qs)], eps)
				if err != nil {
					b.Fatal(err)
				}
				matches += len(ms)
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})
	}
}
