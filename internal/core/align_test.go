package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/geom"
)

// boundAt returns a live bound already tightened to d.
func boundAt(d float64) *KNNBound {
	b := new(KNNBound)
	b.Tighten(d)
	return b
}

// knnBounded is a KNN query under m (nil: D) against a shared bound.
func knnBounded(ctx context.Context, db *Database, q *Sequence, k int, bound *KNNBound, m Metric) ([]Match, error) {
	res, err := db.Do(ctx, Query{Seq: q, Kind: KNN, K: k, Bound: bound, Metric: m})
	return res.Matches, err
}

// alignCase is one (query, sequence, partitioning) shape of the kernel
// property test.
type alignCase struct {
	name string
	q, s *Sequence
	cfg  PartitionConfig
}

// plateauSeq is n copies of one point: every alignment against it ties.
func plateauSeq(rng *rand.Rand, n, dim int) *Sequence {
	p := make(geom.Point, dim)
	for k := range p {
		p[k] = rng.Float64()
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = p
	}
	return &Sequence{Points: pts}
}

// alignCases builds the random and adversarial shapes for one dimension.
func alignCases(rng *rand.Rand, dim int) []alignCase {
	def := DefaultPartitionConfig()
	one := PartitionConfig{QueryExtent: def.QueryExtent, MaxPoints: 1}
	var cs []alignCase
	for i := 0; i < 12; i++ {
		cs = append(cs, alignCase{fmt.Sprintf("random%d", i),
			randWalkSeq(rng, 1+rng.Intn(40), dim), randWalkSeq(rng, 1+rng.Intn(120), dim), def})
	}
	long := randWalkSeq(rng, 90, dim)
	run := randWalkSeq(rng, 90, dim)
	for i := 30; i < 40; i++ {
		run.Points[i][0] = -1e16
	}
	flatQ, flatS := randWalkSeq(rng, 25, dim), randWalkSeq(rng, 80, dim)
	for _, p := range append(append([]geom.Point{}, flatQ.Points...), flatS.Points...) {
		p[0] = 0.25 // the first dimension constant on both sides
	}
	cs = append(cs,
		alignCase{"query-longer", randWalkSeq(rng, 70, dim), randWalkSeq(rng, 20, dim), def},
		alignCase{"equal-length", randWalkSeq(rng, 33, dim), randWalkSeq(rng, 33, dim), def},
		alignCase{"one-point-query", randWalkSeq(rng, 1, dim), long, def},
		alignCase{"one-mbr-sequence", randWalkSeq(rng, 12, dim), plateauSeq(rng, 30, dim), def},
		alignCase{"maxpoints-1", randWalkSeq(rng, 9, dim), randWalkSeq(rng, 40, dim), one},
		alignCase{"maxpoints-1-query-longer", randWalkSeq(rng, 40, dim), randWalkSeq(rng, 9, dim), one},
		// Offset ties: a plateau ties every offset; a sequence that
		// repeats itself ties offsets a period apart bit for bit.
		alignCase{"plateau", randWalkSeq(rng, 10, dim), plateauSeq(rng, 50, dim), def},
		alignCase{"plateau-both", plateauSeq(rng, 7, dim), plateauSeq(rng, 50, dim), def},
		alignCase{"repeated", &Sequence{Points: long.Points[10:30]},
			&Sequence{Points: append(append([]geom.Point{}, long.Points...), long.Points...)}, def},
		alignCase{"self", &Sequence{Points: long.Points[40:60]}, long, def},
		// Shapes that break prefix sums: a spike 10¹⁶ times the rest near
		// either end of the long side swallows the small Dmbr terms of every
		// running sum past it, as does a run thrown the other way; at 10²⁰⁰ a
		// Dmbr overflows.
		alignCase{"spike-1e16-start", randWalkSeq(rng, 20, dim), spikeSeq(rng, 90, dim, 3, 1e16), def},
		alignCase{"spike-1e16-end", randWalkSeq(rng, 20, dim), spikeSeq(rng, 90, dim, 86, 1e16), def},
		alignCase{"run-minus-1e16", randWalkSeq(rng, 20, dim), run, def},
		alignCase{"spike-1e200", randWalkSeq(rng, 20, dim), spikeSeq(rng, 90, dim, 45, 1e200), def},
		alignCase{"constant-dimension", flatQ, flatS, def},
	)
	return cs
}

// TestBestAlignMatchesReference is the kernel's property test: over random
// and adversarial shapes and the cutoffs that sit on every edge, the
// kernel's (offset, dist) equals BestAlignment's bit for bit whenever the
// true D is within the cutoff, never claims a distance within the cutoff
// otherwise, and every per-offset Dmbr bound — after the margin and the
// slack — is a number and at most that offset's exact mean, behind spikes
// and overflows too.
func TestBestAlignMatchesReference(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 8} {
		rng := rand.New(rand.NewSource(int64(1300 + dim)))
		for _, c := range alignCases(rng, dim) {
			qseg, err := NewSegmented(c.q, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewSegmented(c.s, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantOff, wantDist := BestAlignment(c.q.Points, c.s.Points)
			var as alignScratch
			for _, cutoff := range []float64{
				math.Inf(1), wantDist,
				math.Nextafter(wantDist, math.Inf(1)), math.Nextafter(wantDist, math.Inf(-1)), 0,
			} {
				off, dist := bestAlign(&as, qseg.side(), g.side(), dim, cutoff)
				if wantDist <= cutoff {
					if off != wantOff || math.Float64bits(dist) != math.Float64bits(wantDist) {
						t.Fatalf("dim %d %s cutoff %v: kernel (%d, %v), BestAlignment (%d, %v)",
							dim, c.name, cutoff, off, dist, wantOff, wantDist)
					}
				} else if dist <= cutoff {
					t.Fatalf("dim %d %s cutoff %v: kernel claims dist %v, true D %v",
						dim, c.name, cutoff, dist, wantDist)
				}
			}

			short, long := c.q.Points, c.s.Points
			if len(short) > len(long) {
				short, long = long, short
			}
			k := len(short)
			lb := as.lb
			if len(lb) != len(long)-k+1 {
				t.Fatalf("dim %d %s: %d offset bounds for %d offsets", dim, c.name, len(lb), len(long)-k+1)
			}
			for j, b := range lb {
				if exact := Dmean(short, long[j:j+k]); b > exact || math.IsNaN(b) {
					t.Fatalf("dim %d %s offset %d: bound %v, exact mean %v", dim, c.name, j, b, exact)
				}
			}
		}
	}
}

// TestKNNTiesMatchReference runs kNN over corpora built to tie — every
// sequence stored twice, one-point MBRs — against the exhaustive
// reference: ids, offsets and distance bits must agree for every k and
// bound, so ties are settled by (Dist, SeqID) and by nothing else.
func TestKNNTiesMatchReference(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 8} {
		for _, cfg := range []PartitionConfig{DefaultPartitionConfig(), {QueryExtent: 0.3, MaxPoints: 1}} {
			db, err := NewDatabase(Options{Dim: dim, Partition: cfg})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(77 + dim)))
			var seqs []*Sequence
			for i := 0; i < 12; i++ {
				s := randWalkSeq(rng, 8+rng.Intn(50), dim)
				seqs = append(seqs, s, &Sequence{Points: s.Points})
			}
			seqs = append(seqs, plateauSeq(rng, 30, dim))
			if _, err := db.AddAll(seqs); err != nil {
				t.Fatal(err)
			}
			qs := []*Sequence{
				{Points: seqs[0].Points[2:8]}, seqs[4], randWalkSeq(rng, 70, dim), randWalkSeq(rng, 1, dim),
			}
			for qi, q := range qs {
				for _, k := range []int{1, 2, 5, 30} {
					for _, bound := range []float64{math.Inf(1), 0.3, 0} {
						want := knnReference(t, db, q, k, bound)
						got, err := knnBounded(context.Background(), db, q, k, boundAt(bound), nil)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("dim %d maxpoints %d query %d k %d bound %g: %d results, reference %d",
								dim, cfg.MaxPoints, qi, k, bound, len(got), len(want))
						}
						for i := range got {
							g, w := got[i], want[i]
							if g.SeqID != w.SeqID || g.Offset != w.Offset ||
								math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
								t.Fatalf("dim %d maxpoints %d query %d k %d bound %g result %d: got {seq %d off %d dist %v}, reference {seq %d off %d dist %v}",
									dim, cfg.MaxPoints, qi, k, bound, i, g.SeqID, g.Offset, g.Dist, w.SeqID, w.Offset, w.Dist)
							}
						}
					}
				}
			}
			db.Close()
		}
	}
}

// TestKNNBoundTighten checks the live bound's arithmetic: it starts at
// +Inf, only ever decreases, a nil bound is unbounded and inert, and
// concurrent tighteners leave the minimum.
func TestKNNBoundTighten(t *testing.T) {
	var nilBound *KNNBound
	nilBound.Tighten(1)
	nilBound.AddCounts(KNNCounts{Refined: 1})
	if !math.IsInf(nilBound.Load(), 1) {
		t.Fatalf("nil bound loads %v, want +Inf", nilBound.Load())
	}
	b := new(KNNBound)
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("zero bound loads %v, want +Inf", b.Load())
	}
	for _, step := range []struct{ d, want float64 }{{2.5, 2.5}, {3, 2.5}, {2.5, 2.5}, {0.125, 0.125}, {0, 0}, {1, 0}} {
		b.Tighten(step.d)
		if got := b.Load(); got != step.want {
			t.Fatalf("after Tighten(%v): %v, want %v", step.d, got, step.want)
		}
	}
	c := new(KNNBound)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 1000; i > 0; i-- {
				c.Tighten(float64(i*4 + w))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := c.Load(); got != 4 {
		t.Fatalf("concurrent tighten left %v, want 4", got)
	}

	// A Local bound reads through to its parent, keeps what it publishes
	// to itself and hands its counts up.
	root := boundAt(3)
	loc := root.Local()
	if got := loc.Load(); got != 3 {
		t.Fatalf("local bound loads %v, want the parent's 3", got)
	}
	loc.Tighten(1)
	loc.AddCounts(KNNCounts{Candidates: 7, Refined: 2})
	if loc.Load() != 1 || root.Load() != 3 {
		t.Fatalf("after a local Tighten(1): local %v, parent %v, want 1 and 3", loc.Load(), root.Load())
	}
	root.Tighten(0.5)
	if got := loc.Load(); got != 0.5 {
		t.Fatalf("local bound loads %v after the parent fell to 0.5", got)
	}
	if got := root.Counts(); got.Candidates != 7 || got.Refined != 2 {
		t.Fatalf("parent counts %+v, want the local bound's 7 candidates, 2 refined", got)
	}
	if got := nilBound.Local(); !math.IsInf(got.Load(), 1) {
		t.Fatalf("nil.Local() loads %v, want +Inf", got.Load())
	}
}

// TestKNNBoundPool checks the pool's arithmetic: the bound is the k-th
// smallest offer over distinct sequences from all searchers and nothing
// before k exist; a sequence is its searcher's tag and its id, so the same
// id under two tags counts twice and a re-offer under one tag once; a tie
// with the k-th changes nothing; nil, the zero value and a Local bound
// ignore offers; a view tightens and counts straight through; the pool
// holds what was offered, not k; and concurrent searchers leave the k-th
// smallest.
func TestKNNBoundPool(t *testing.T) {
	inf := math.Inf(1)
	var nilBound *KNNBound
	nilBound.Offer(1, 0.5)
	zero := new(KNNBound)
	zero.Offer(1, 0.5)
	root := NewKNNBound(3)
	loc := root.Local()
	for id := uint32(0); id < 5; id++ {
		loc.Offer(id, 0.25)
	}
	if !math.IsInf(zero.Load(), 1) || !math.IsInf(loc.Load(), 1) || !math.IsInf(root.Load(), 1) {
		t.Fatalf("after offers to the zero value and a Local bound: zero %v, local %v, its parent %v, want +Inf",
			zero.Load(), loc.Load(), root.Load())
	}

	a, b := root.Searcher(0), root.Searcher(1)
	for _, step := range []struct {
		who  *KNNBound
		id   uint32
		d    float64
		want float64
	}{
		{a, 7, 0.5, inf},
		{a, 7, 0.5, inf},  // the retry's copy
		{b, 7, 0.75, inf}, // another shard's sequence 7
		{b, 7, 0.75, inf},
		{a, 2, 1.5, 1.5},    // the third distinct sequence
		{b, 9, 1.5, 1.5},    // a tie with the k-th
		{b, 4, 0.625, 0.75}, // pushes (a, 2) out
		{a, 2, 1.5, 0.75},   // and it stays out
		{a, 7, 0.5, 0.75},   // a copy of a pooled one, below the bound
		{root, 3, 0.125, 0.625},
	} {
		step.who.Offer(step.id, step.d)
		if got := root.Load(); got != step.want {
			t.Fatalf("after Offer(%d, %v): bound %v, want %v", step.id, step.d, got, step.want)
		}
	}
	a.Tighten(0.25)
	a.AddCounts(KNNCounts{Candidates: 9, Refined: 4})
	if root.Load() != 0.25 || b.Load() != 0.25 || root.Counts().Refined != 4 {
		t.Fatalf("after a view's Tighten(0.25) and AddCounts: parent %v, the other view %v, counts %+v",
			root.Load(), b.Load(), root.Counts())
	}

	huge := NewKNNBound(math.MaxInt)
	huge.Offer(1, 0.5)
	huge.Offer(2, 0.25)
	if len(huge.pool) != 2 || cap(huge.pool) > 16 || !math.IsInf(huge.Load(), 1) {
		t.Fatalf("pool for k = MaxInt after two offers: len %d cap %d bound %v", len(huge.pool), cap(huge.pool), huge.Load())
	}

	// Four searchers, each offering its 1000 sequences twice, nearest last.
	const k = 10
	c := NewKNNBound(k)
	done := make(chan struct{})
	for w := uint32(0); w < 4; w++ {
		go func(view *KNNBound, w uint32) {
			defer func() { done <- struct{}{} }()
			for pass := 0; pass < 2; pass++ {
				for i := uint32(1000); i > 0; i-- {
					view.Offer(i, float64(i*4+w))
				}
			}
		}(c.Searcher(w), w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := c.Load(); got != 4+k-1 {
		t.Fatalf("concurrent offers of 4, 5, 6, … left the bound at %v, want the %dth smallest %d", got, k, 4+k-1)
	}
}

// TestKNNAllocs is the D-kNN allocation gate. The shared bound sits one
// ulp under the nearest neighbor's distance, so nothing can be returned,
// yet the walk runs out to that distance and every sequence it bounds at or
// below it goes through the kernel — running sums, offset bounds, abandoned
// sums. All of it — the walk's queue, the seen-set, the candidate heap, the
// Dnorm arrays, the kernel's arrays — must come out of the warmed pooled
// scratch.
func TestKNNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops Puts under -race; alloc gate needs a non-race build")
	}
	db, _ := hotDB(t, 4, 40, 7)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	q := randWalkSeq(rand.New(rand.NewSource(9)), 24, 4)
	nearest, err := db.SearchKNN(q, 1)
	if err != nil || len(nearest) != 1 || nearest[0].Dist == 0 {
		t.Fatalf("nearest neighbor %+v, %v; the alloc gate needs one at a positive distance", nearest, err)
	}
	bound := boundAt(math.Nextafter(nearest[0].Dist, 0))
	for i := 0; i < 3; i++ {
		rs, err := knnBounded(context.Background(), db, q, 5, bound, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 0 {
			t.Fatal("a neighbor under the nearest one's distance; the alloc gate needs an empty answer")
		}
	}
	if bound.Counts().Refined == 0 {
		t.Fatal("no sequence reached the kernel; the alloc gate measures nothing")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := knnBounded(context.Background(), db, q, 5, bound, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed D-kNN allocates %.1f times per run, want 0", allocs)
	}
}
