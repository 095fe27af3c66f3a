package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// The refinement kernels — dtwFlat, sweepWindows, and geom.GapSq under
// every Dmbr — carry no data-dependent branch in their inner loops. Each
// one's textbook form lives in a test file as the reference it is compared
// against bit for bit: dtwReference here, dnormCalc.sweep for the window
// sweep, the three-case gap in internal/geom and internal/rtree.

// dtwReference is textbook dynamic time warping: the full (n+1)×(m+1)
// cost matrix, every cell inside the band from its three predecessors,
// the point distance a plain loop over the coordinates. It returns the
// unnormalized total and each row's smallest cell (what early abandoning
// looks at).
func dtwReference(a, b []geom.Point, window int) (total float64, rowMins []float64) {
	n, m := len(a), len(b)
	inf := math.Inf(1)
	cost := make([][]float64, n+1)
	for i := range cost {
		cost[i] = make([]float64, m+1)
		for j := range cost[i] {
			cost[i][j] = inf
		}
	}
	cost[0][0] = 0
	for i := 1; i <= n; i++ {
		rowMin := inf
		for j := 1; j <= m; j++ {
			if window >= 0 && abs(i-j) > window {
				continue
			}
			var sq float64
			for k := range a[i-1] {
				d := a[i-1][k] - b[j-1][k]
				sq += d * d
			}
			best := cost[i-1][j]
			if cost[i-1][j-1] < best {
				best = cost[i-1][j-1]
			}
			if cost[i][j-1] < best {
				best = cost[i][j-1]
			}
			cost[i][j] = math.Sqrt(sq) + best
			if cost[i][j] < rowMin {
				rowMin = cost[i][j]
			}
		}
		rowMins = append(rowMins, rowMin)
	}
	return cost[n][m], rowMins
}

// flatten returns the columnar copy of pts.
func flatten(pts []geom.Point) []float64 {
	var out []float64
	for _, p := range pts {
		out = append(out, p...)
	}
	return out
}

// TestDTWFlatMatchesReference compares the banded pair-of-rows kernel with
// the textbook matrix, bit for bit — and the textbook matrix with its own
// transpose, since the kernel runs its rows over the data side where the
// reference runs them over the query: every window shape (none, 0, 1, 2, 3,
// 16, exactly the length difference, wider than the sequences, the largest
// int, too narrow to align), unequal lengths, an odd and an even number of
// data rows, lengths 1 and 2 on either side, duplicated sequences,
// dimensions on both sides of the inlined distance, coordinates at 1e200
// scale (the squared distance overflows) and among the denormals — always
// into a scratch row pre-filled with garbage, which is what the band
// invariant has to survive. Under a cutoff and no suffix the kernel must
// abandon exactly when the minimum of a row of the transposed matrix is
// above it by both tests (rounded product, then the division), and
// otherwise return the same total: cutoffs are the distance itself, its two
// neighbours, 0, and values drawn around it.
func TestDTWFlatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))
	inf := math.Inf(1)
	garbage := []float64{0, -1, 1e-300, 0.5, 1e300, math.Inf(-1), math.NaN()}
	scaled := func(s *Sequence, f float64) []geom.Point {
		out := make([]geom.Point, len(s.Points))
		for i, p := range s.Points {
			out[i] = make(geom.Point, len(p))
			for k, v := range p {
				out[i][k] = (v - 0.5) * f
			}
		}
		return out
	}
	// Query and data lengths after the random trials: the band's prologue
	// and epilogue, a lone first row or none, and a band exactly as wide as
	// the length difference.
	pairs := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 3}, {3, 1}, {2, 3}, {3, 2}, {2, 5}, {5, 2},
		{4, 4}, {7, 7}, {5, 8}, {8, 5}, {6, 9}, {9, 6}, {10, 13}, {13, 10}, {17, 16}, {16, 17}}
	abandoned, completed := 0, 0
	var shorter, equal, longer int // query against data
	var oddRows, evenRows int
	for dim := 1; dim <= 5; dim++ {
		for trial := 0; trial < 60+len(pairs); trial++ {
			n, m := 1+rng.Intn(40), 1+rng.Intn(40)
			switch {
			case trial >= 60:
				n, m = pairs[trial-60][0], pairs[trial-60][1]
			case trial%6 == 0:
				m = n
			case trial%6 == 1:
				n = 1
			case trial%6 == 2:
				m = 1
			}
			scale := []float64{1, 1, 1, 1e200, 1e-310}[trial%5]
			a, b := scaled(randWalkSeq(rng, n, dim), scale), scaled(randWalkSeq(rng, m, dim), scale)
			if trial < 60 && trial%6 == 3 {
				b, m = a, n // a duplicate: distance exactly 0
			}
			if m%2 == 1 {
				oddRows++
			} else {
				evenRows++
			}
			qf, sf := flatten(a), flatten(b)
			denom := float64(max(n, m))
			switch {
			case n < m:
				shorter++
			case n == m:
				equal++
			default:
				longer++
			}
			for _, window := range []int{-1, 0, 1, 2, 3, 16, abs(n - m), n + m, math.MaxInt} {
				total, _ := dtwReference(a, b, window)
				transposed, rowMins := dtwReference(b, a, window)
				if math.Float64bits(total) != math.Float64bits(transposed) {
					t.Fatalf("dim %d n %d m %d scale %g window %d: reference %v, transposed %v",
						dim, n, m, scale, window, total, transposed)
				}
				dist := total / denom
				cutoffs := []float64{inf, dist, math.Nextafter(dist, inf), math.Nextafter(dist, math.Inf(-1)), 0,
					dist * rng.Float64() * 2, dist * (1 + (rng.Float64()-0.5)*1e-15)}
				for _, cutoff := range cutoffs {
					if math.IsNaN(cutoff) {
						continue // dist is +Inf
					}
					want := total
					for _, rowMin := range rowMins {
						if rowMin > cutoff*denom && rowMin/denom > cutoff {
							want = inf
							break
						}
					}
					row := make([]float64, n+3)
					for j := range row {
						row[j] = garbage[rng.Intn(len(garbage))]
					}
					got := dtwFlat(qf, n, sf, m, dim, window, cutoff, nil, row)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dim %d n %d m %d scale %g window %d cutoff %v: dtwFlat = %v, reference %v (distance %v)",
							dim, n, m, scale, window, cutoff, got, want, dist)
					}
					// Whatever the cutoff does, it never costs an answer: a
					// distance at or below it comes back exact.
					if dist <= cutoff && math.Float64bits(got) != math.Float64bits(total) {
						t.Fatalf("dim %d n %d m %d window %d: distance %v ≤ cutoff %v abandoned", dim, n, m, window, dist, cutoff)
					}
					if math.IsInf(want, 1) && !math.IsInf(total, 1) {
						abandoned++
					} else {
						completed++
					}
				}
			}
		}
	}
	if abandoned == 0 || completed == 0 {
		t.Fatalf("%d abandoned, %d completed: the cutoffs exercise one side only", abandoned, completed)
	}
	if shorter == 0 || equal == 0 || longer == 0 || oddRows == 0 || evenRows == 0 {
		t.Fatalf("query shorter than / as long as / longer than the data in %d / %d / %d pairs, %d odd and %d even data lengths: one shape is missing",
			shorter, equal, longer, oddRows, evenRows)
	}
}

// cascadeShapes is the corpus of the cascade's soundness test: random walks
// of lengths on both sides of the queries', a plateau, constant dimensions,
// and walks with one point or a run of points thrown far out — far enough,
// at 1e16, that the cost so far absorbs every later step of the dynamic
// program, and at 1e200 that a squared difference overflows.
func cascadeShapes(rng *rand.Rand, dim int) []*Sequence {
	var seqs []*Sequence
	for i := 0; i < 10; i++ {
		seqs = append(seqs, randWalkSeq(rng, 20+rng.Intn(30), dim))
	}
	flat := randWalkSeq(rng, 40, dim) // every dimension but the last constant
	for _, p := range flat.Points {
		for k := 0; k < dim-1; k++ {
			p[k] = 0.25
		}
	}
	early, late, run := spikeSeq(rng, 36, dim, 2, 1e16), spikeSeq(rng, 36, dim, 33, 1e16), randWalkSeq(rng, 30, dim)
	for i := 10; i < 20; i++ {
		run.Points[i][0] = -1e16
	}
	return append(seqs, plateauSeq(rng, 30, dim), flat, early, late, run, spikeSeq(rng, 30, dim, 15, 1e200))
}

// TestDTWCascadeSound is the soundness property of the suffix cascade, on
// the kernel and through both ladders. For every (query, sequence, window)
// and cutoffs at the scan distance, one ulp to either side and drawn around
// it: a distance at or below the cutoff survives LB_Keogh and comes back
// from the dynamic program with the scan's bits, never +Inf — the suffix is
// summed in another order than the program's cells, and what keeps a tie
// alive is cascadeSlack alone; a distance above the cutoff is never
// reported at or below it. Then the range search at ε = distance and the
// kNN search under a bound at the distance must both return the sequence.
// The kernel must stop exactly where its rule, worked on the reference
// matrix, says; and the cascade has to bite for any of this to mean
// something: that row must come before the one the row minimum alone
// stops at.
func TestDTWCascadeSound(t *testing.T) {
	inf := math.Inf(1)
	ctx := context.Background()
	ties, rowsSaved := 0, 0
	for _, dim := range []int{1, 3, 4} {
		rng := rand.New(rand.NewSource(int64(2100 + dim)))
		db := newTestDB(t, dim)
		seqs := cascadeShapes(rng, dim)
		if _, err := db.AddAll(seqs); err != nil {
			t.Fatal(err)
		}
		var queries []*Sequence
		for i := 0; i < len(seqs); i += 2 {
			queries = append(queries, jitterSeq(rng, seqs[i], 0.02), &Sequence{Points: seqs[i].Points})
		}
		for _, window := range []int{0, 1, 16, -1, 1000} {
			mt := MetricDTW{Window: window}
			for qi, q := range queries {
				sc := getScratch()
				qflat := flatten(q.Points)
				ds := &sc.dtw
				var env dtwEnv
				env.buildEnvelopes(qflat, q.Len(), dim, window)
				for id, g := range db.seqs {
					index := ds.dtwIndexLB(&env, g)
					if math.IsInf(index, 1) {
						continue // the band cannot align the pair
					}
					dist := sc.dtwSeq(mt, qflat, g, dim, inf, nil)
					total, rowMins := dtwReference(g.Seq.Slice(0, g.Seq.Len()), q.Points, window) // rows over the data
					n, m := q.Len(), g.Seq.Len()
					denom := float64(max(n, m))
					for _, cutoff := range []float64{dist, math.Nextafter(dist, inf), math.Nextafter(dist, math.Inf(-1)),
						dist * (1 + (rng.Float64()-0.5)*1e-14), dist * rng.Float64() * 2} {
						if math.IsNaN(cutoff) {
							continue // dist is +Inf
						}
						keogh := ds.lbKeogh(&env, g, cutoff)
						if keogh > cutoff {
							if dist <= cutoff {
								t.Fatalf("dim %d window %d query %d seq %d: LB_Keogh %v dismisses distance %v at cutoff %v",
									dim, window, qi, id, keogh, dist, cutoff)
							}
							continue
						}
						// The row the kernel stops after, by its rule, with the
						// suffix and without (0: it runs to the end).
						stopsAfter := func(suf []float64) int {
							for j, rowMin := range rowMins {
								lb := rowMin
								if suf != nil {
									lb = (rowMin + suf[j+1]) * cascadeSlack(n, m, dim)
								}
								if lb > cutoff*denom && lb/denom > cutoff {
									return j + 1
								}
							}
							return 0
						}
						want := total / denom
						if stopsAfter(ds.keoghSuf) != 0 {
							want = inf
						}
						got := sc.dtwSeq(mt, qflat, g, dim, cutoff, ds.keoghSuf)
						switch {
						case math.Float64bits(got) != math.Float64bits(want):
							t.Fatalf("dim %d window %d query %d seq %d cutoff %v: kernel %v, its rule on the reference matrix %v",
								dim, window, qi, id, cutoff, got, want)
						case dist <= cutoff && math.Float64bits(got) != math.Float64bits(dist):
							t.Fatalf("dim %d window %d query %d seq %d: distance %v at cutoff %v came back %v",
								dim, window, qi, id, dist, cutoff, got)
						case dist > cutoff && got <= cutoff:
							t.Fatalf("dim %d window %d query %d seq %d: distance %v above cutoff %v came back %v",
								dim, window, qi, id, dist, cutoff, got)
						}
						if dist <= cutoff {
							ties++
						} else if with, without := stopsAfter(ds.keoghSuf), stopsAfter(nil); with != 0 && without == 0 {
							rowsSaved += m - with
						} else if with != 0 {
							rowsSaved += without - with
						}
					}
					// Both ladders with the distance as the cutoff: the rung
					// below LB_Keogh, the envelope index bound, must let it
					// through too (dtwIndexSlack; behind a 1e16 spike the bare
					// bound computes a few ulps above the distance).
					if index > dist {
						t.Fatalf("dim %d window %d query %d seq %d: index bound %v above the distance %v", dim, window, qi, id, index, dist)
					}
					ms, _, err := db.SearchMetric(q, dist, mt)
					if err != nil {
						t.Fatal(err)
					}
					ns, err := knnBounded(ctx, db, q, len(seqs), boundAt(dist), mt)
					if err != nil {
						t.Fatal(err)
					}
					inRange := slices.ContainsFunc(ms, func(m MetricMatch) bool {
						return int(m.SeqID) == id && math.Float64bits(m.Dist) == math.Float64bits(dist)
					})
					inKNN := slices.ContainsFunc(ns, func(r KNNResult) bool {
						return int(r.SeqID) == id && math.Float64bits(r.Dist) == math.Float64bits(dist)
					})
					if !inRange || !inKNN {
						t.Fatalf("dim %d window %d query %d seq %d at distance %v: in the range answer at eps = distance %v, in the kNN answer under that bound %v",
							dim, window, qi, id, dist, inRange, inKNN)
					}
				}
				putScratch(sc)
			}
		}
	}
	if ties == 0 || rowsSaved <= 0 {
		t.Fatalf("%d distances at or below their cutoff, %d rows not computed that the row minimum alone needs: one side is untested", ties, rowsSaved)
	}
	t.Logf("%d distances at or below their cutoff; above it the suffix stopped %d rows before the row minimum alone would", ties, rowsSaved)
}

// dtwIndexLBReference is dtwIndexLB with each partition's envelope rect
// assembled the plain way: the union of the envelope of every one of its
// data positions.
func dtwIndexLBReference(e *dtwEnv, g *Segmented) float64 {
	n, d, w := e.envN, e.envD, e.envW
	m := g.Seq.Len()
	if w >= 0 && abs(n-m) > w {
		return math.Inf(1)
	}
	minMD := math.Inf(1)
	var weighted float64
	rectLo, rectHi := make([]float64, d), make([]float64, d)
	for t, p := range g.MBRs {
		for j := p.Start; j < p.End; j++ {
			lo, hi := e.envRow(j)
			for k := 0; k < d; k++ {
				if j == p.Start || lo[k] < rectLo[k] {
					rectLo[k] = lo[k]
				}
				if j == p.Start || hi[k] > rectHi[k] {
					rectHi[k] = hi[k]
				}
			}
		}
		md := math.Sqrt(geom.MinDistSqLH(rectLo, rectHi, g.Lo[t*d:(t+1)*d], g.Hi[t*d:(t+1)*d]))
		if md < minMD {
			minMD = md
		}
		weighted += md * float64(p.Count())
	}
	if b2 := weighted / float64(max(n, m)); b2 > minMD {
		minMD = b2
	}
	return minMD * dtwIndexSlack(n, m, d)
}

// TestDTWIndexLBMatchesReference checks the strided envelope union against
// the per-position one, bit for bit: windows narrower and wider than the
// partitions are long (a stride of 1, of a few positions, of more than any
// MBR), unconstrained, and stored sequences both shorter and longer than
// the query, so suffix envelopes take part.
func TestDTWIndexLBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1905))
	finite := 0
	for _, dim := range []int{1, 3, 5} {
		for _, cfg := range []PartitionConfig{DefaultPartitionConfig(), {QueryExtent: 0.3, MaxPoints: 7}, {QueryExtent: 5, MaxPoints: 64}} {
			for trial := 0; trial < 40; trial++ {
				g, err := NewSegmented(randWalkSeq(rng, 1+rng.Intn(150), dim), cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := g.Seq.Len()
				for _, n := range []int{m, max(1, m-rng.Intn(20)), m + rng.Intn(20), 1 + rng.Intn(150)} {
					q := flatten(randWalkSeq(rng, n, dim).Points)
					for _, w := range []int{-1, 0, 1, 2, 16, 40, n + m, math.MaxInt / 2} {
						var ds dtwScratch
						var env dtwEnv
						env.buildEnvelopes(q, n, dim, w)
						got, want := ds.dtwIndexLB(&env, g), dtwIndexLBReference(&env, g)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("dim %d MaxPoints %d n %d m %d window %d: index bound %v, reference %v",
								dim, cfg.MaxPoints, n, m, w, got, want)
						}
						if !math.IsInf(want, 1) {
							finite++
						}
					}
				}
			}
		}
	}
	if finite == 0 {
		t.Fatal("no window admitted an alignment in any trial")
	}
}

// envelopeReference is the monotone-deque sliding extremum buildEnvelopes
// used to run: out[i*d+k] is the minimum (wantMin) or maximum of dimension k
// over [i−w, i+w] clamped to [0, n−1], a negative w meaning the whole query.
// Both window edges are nondecreasing in i, so one deque gives the classic
// amortized O(n) scan.
func envelopeReference(qflat []float64, n, d, k, w int, out []float64, wantMin bool) {
	if w < 0 || w > n {
		w = n
	}
	var deq []int
	next := 0 // first index not yet offered to the deque
	for i := 0; i < n; i++ {
		left, right := max(i-w, 0), min(i+w, n-1)
		for ; next <= right; next++ {
			v := qflat[next*d+k]
			for len(deq) > 0 {
				back := qflat[deq[len(deq)-1]*d+k]
				if (wantMin && back >= v) || (!wantMin && back <= v) {
					deq = deq[:len(deq)-1]
					continue
				}
				break
			}
			deq = append(deq, next)
		}
		for len(deq) > 0 && deq[0] < left {
			deq = deq[1:]
		}
		out[i*d+k] = qflat[deq[0]*d+k]
	}
}

// TestBuildEnvelopesMatchesReference compares the block-wise envelopes with
// the deque's, and the suffix envelopes with a plain scan: n 1–80, d 1–5,
// windows 0, 1, 2, n−2, n−1, n, n+3, the largest int and unconstrained,
// coordinates drawn from a few values so that plateaus and ties are
// everywhere, −0 and +0 among them, and one scratch reused across every
// shape. Values must be equal, with one exception: a window holding both
// −0 and +0 may report either (the deque keeps the later of two ties, min
// and max the negative and the positive zero). The suffixes are min and max
// on both sides, so there is no exception there.
func TestBuildEnvelopesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2501))
	negZero := math.Copysign(0, -1)
	values := []float64{-1, negZero, 0, 0.5, 1, 2}
	var ds dtwEnv
	zeroTies := 0
	for n := 1; n <= 80; n++ {
		for d := 1; d <= 5; d++ {
			q := make([]float64, n*d)
			for i := range q {
				if i >= d && rng.Intn(3) == 0 {
					q[i] = q[i-d] // a plateau
				} else {
					q[i] = values[rng.Intn(len(values))]
				}
			}
			for _, w := range []int{0, 1, 2, n - 2, n - 1, n, n + 3, math.MaxInt, -1} {
				ds.buildEnvelopes(q, n, d, w)
				wantLo, wantHi := make([]float64, n*d), make([]float64, n*d)
				for k := 0; k < d; k++ {
					envelopeReference(q, n, d, k, w, wantLo, true)
					envelopeReference(q, n, d, k, w, wantHi, false)
				}
				for i := 0; i < n; i++ {
					for k := 0; k < d; k++ {
						win := []float64{}
						lo, hi := 0, n-1
						if w >= 0 && w < n {
							lo, hi = max(i-w, 0), min(i+w, n-1)
						}
						for t := lo; t <= hi; t++ {
							win = append(win, q[t*d+k])
						}
						sufLo, sufHi := q[i*d+k], q[i*d+k]
						for t := i + 1; t < n; t++ {
							sufLo, sufHi = min(sufLo, q[t*d+k]), max(sufHi, q[t*d+k])
						}
						bothZeros := slices.ContainsFunc(win, func(v float64) bool { return v == 0 && math.Signbit(v) }) &&
							slices.ContainsFunc(win, func(v float64) bool { return v == 0 && !math.Signbit(v) })
						for _, c := range []struct {
							name      string
							got, want float64
							zeros     bool
						}{
							{"lower envelope", ds.envLo[i*d+k], wantLo[i*d+k], bothZeros},
							{"upper envelope", ds.envHi[i*d+k], wantHi[i*d+k], bothZeros},
							{"lower suffix", ds.sufLo[i*d+k], sufLo, false},
							{"upper suffix", ds.sufHi[i*d+k], sufHi, false},
						} {
							if math.Float64bits(c.got) == math.Float64bits(c.want) {
								continue
							}
							if c.zeros && c.got == 0 && c.want == 0 {
								zeroTies++
								continue
							}
							t.Fatalf("n %d d %d w %d position %d dimension %d: %s %v, reference %v (window %v)",
								n, d, w, i, k, c.name, c.got, c.want, win)
						}
					}
				}
			}
		}
	}
	t.Logf("%d bounds differ from the reference in the sign of a zero only", zeroTies)
}

// windowKey orders Dnorm windows for comparison as multisets.
func windowKey(a, b PointRange) int {
	if a.Start != b.Start {
		return a.Start - b.Start
	}
	return a.End - b.End
}

// sweepWindowsBranch is sweepWindows with a branch per window: each window
// appended when it qualifies, the RD pass skipping right edges with too few
// points to their left. It is the reference for the order of the kept
// windows.
func sweepWindowsBranch(starts []int32, dists, wpre []float64, qCount int, eps float64, wins []PointRange) (float64, []PointRange) {
	r := len(dists)
	best := infBits
	qc, fq := int32(qCount), float64(qCount)
	keep := func(dist float64, pstart, pend int32) {
		if dist <= eps {
			wins = append(wins, PointRange{Start: int(pstart), End: int(pend)})
		}
		best = min(best, math.Float64bits(dist))
	}
	l := 0
	for k := 0; k < r; k++ {
		sk := starts[k]
		l = max(l, k)
		for l < r && starts[l+1]-sk < qc {
			l++
		}
		if l >= r {
			break
		}
		dist, pend := dists[k], starts[k+1]
		if l != k {
			partial := qc - (starts[l] - sk)
			dist = (wpre[l] - wpre[k] + dists[l]*float64(partial)) / fq
			pend = starts[l] + partial
		}
		keep(dist, sk, pend)
	}
	p := 0
	for e := 0; e < r; e++ {
		se := starts[e+1]
		if se-starts[0] < qc {
			continue
		}
		for p+1 <= e && se-starts[p+1] >= qc {
			p++
		}
		if p == e {
			continue
		}
		partial := qc - (se - starts[p+1])
		keep((wpre[e+1]-wpre[p+1]+dists[p]*float64(partial))/fq, starts[p+1]-partial, se)
	}
	return math.Float64frombits(best), wins
}

// TestSweepWindowsMatchesSweep compares the columnar sweep with the
// closure-form reference dnormCalc.sweep on random partitionings: the
// minimum bit-equal and the qualifying windows equal as multisets (the
// kernel emits degenerate targets in left-edge order, the reference ahead
// of the rest), with ε off (−Inf, the kNN bound pass), random, and +Inf.
// Against the keep-by-branch form (sweepWindowsBranch) it is held to the
// same minimum bits and the same kept windows in the same order, appended
// after a range already in the buffer; with ε off it grows nothing.
// MBR sizes are drawn around the query MBR's so that degenerate targets,
// LD/RD windows and sequences too short for any window all occur, with runs
// of equal and zero Dmbr and, now and then, an overflowed one. A tiling of
// fewer points than the query MBR holds no window: minimum +Inf, nothing
// emitted. Each case is swept again from a random MBR on, the way
// phase3Hits sweeps a run behind a restart: starts that do not begin at 0,
// running sums restarted at 0.
func TestSweepWindowsMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1902))
	windows, overflowed := 0, 0
	for trial := 0; trial < 20000; trial++ {
		r := 1 + rng.Intn(12)
		qCount := 1 + rng.Intn(30)
		c := &dnormCalc{
			mbrs:   make([]MBRInfo, r),
			dists:  make([]float64, r),
			prefix: make([]int, r+1),
			wpre:   make([]float64, r+1),
			qCount: qCount,
		}
		starts := make([]int32, r+1)
		for j := 0; j < r; j++ {
			count := 1 + rng.Intn(2*qCount)
			if rng.Intn(4) == 0 {
				count = qCount // exactly degenerate
			}
			switch rng.Intn(4) {
			case 0: // zero: the query MBR overlaps the target
			case 1:
				c.dists[j] = float64(rng.Intn(4)) / 4 // ties
			default:
				c.dists[j] = rng.Float64()
			}
			if trial%16 == 0 && rng.Intn(4) == 0 {
				// A Dmbr whose square overflowed: windows right of it
				// subtract Inf from Inf, and no form may count the NaN.
				c.dists[j] = math.Inf(1)
				overflowed++
			}
			c.mbrs[j] = MBRInfo{Start: c.prefix[j], End: c.prefix[j] + count}
			c.prefix[j+1] = c.prefix[j] + count
			c.wpre[j+1] = c.wpre[j] + c.dists[j]*float64(count)
			starts[j+1] = int32(c.prefix[j+1])
		}
		// The run from MBR a on, its running sums restarted at 0.
		a := rng.Intn(r)
		run := &dnormCalc{
			mbrs:   c.mbrs[a:],
			dists:  c.dists[a:],
			prefix: make([]int, r-a+1),
			wpre:   make([]float64, r-a+1),
			qCount: qCount,
		}
		for j := range run.mbrs {
			run.prefix[j+1] = run.prefix[j] + run.mbrs[j].Count()
			run.wpre[j+1] = run.wpre[j] + run.dists[j]*float64(run.mbrs[j].Count())
		}
		for _, eps := range []float64{math.Inf(-1), rng.Float64(), math.Inf(1)} {
			for _, tc := range []struct {
				ref    *dnormCalc
				starts []int32
			}{{c, starts}, {run, starts[a:]}} {
				var want []PointRange
				wantMin := tc.ref.sweep(eps, func(_ float64, pstart, pend int) {
					want = append(want, PointRange{Start: pstart, End: pend})
				})
				// Into a buffer holding one range already, as phase3Hits's
				// second run of a pair finds it.
				prior := []PointRange{{Start: -1, End: -2}}
				gotMin, got := sweepWindows(tc.starts, tc.ref.dists, tc.ref.wpre, qCount, eps, slices.Clip(prior))
				if math.Float64bits(gotMin) != math.Float64bits(wantMin) {
					t.Fatalf("trial %d eps %v from MBR %d: minimum %v, reference %v", trial, eps, len(c.mbrs)-len(tc.ref.mbrs), gotMin, wantMin)
				}
				branchMin, branch := sweepWindowsBranch(tc.starts, tc.ref.dists, tc.ref.wpre, qCount, eps, slices.Clip(prior))
				if math.Float64bits(gotMin) != math.Float64bits(branchMin) || !slices.Equal(got, branch) {
					t.Fatalf("trial %d eps %v from MBR %d: minimum %v and windows %v, keep-by-branch %v and %v",
						trial, eps, len(c.mbrs)-len(tc.ref.mbrs), gotMin, got, branchMin, branch)
				}
				if eps < 0 && cap(got) != 1 {
					t.Fatalf("trial %d: eps %v grew the buffer to %d ranges", trial, eps, cap(got))
				}
				got = got[1:]
				slices.SortFunc(got, windowKey)
				slices.SortFunc(want, windowKey)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d eps %v from MBR %d: windows %v, reference %v", trial, eps, len(c.mbrs)-len(tc.ref.mbrs), got, want)
				}
				if short := tc.ref.countIn(0, len(tc.ref.mbrs)-1) < qCount; short && (!math.IsInf(gotMin, 1) || len(got) > 0) {
					t.Fatalf("trial %d: %d points, query MBR %d: minimum %v and %d windows, want +Inf and none",
						trial, tc.ref.countIn(0, len(tc.ref.mbrs)-1), qCount, gotMin, len(got))
				}
				windows += len(want)
			}
		}
	}
	if windows == 0 || overflowed == 0 {
		t.Fatalf("%d windows qualified and %d Dmbr overflowed over all trials: the draw no longer reaches both", windows, overflowed)
	}
}

// kernelCounters is the pruning account of a query stream: every counter a
// refinement kernel could move by refining something else, or the same
// things in another order.
type kernelCounters struct {
	CandidatesDmbr, IndexEntriesHit, DnormEvals, MatchesDnorm int
	DTWEnvPruned, DTWKeoghPruned, DTWEvals                    int
	KNNRefined                                                int
}

func (c *kernelCounters) addStats(st SearchStats) {
	c.CandidatesDmbr += st.CandidatesDmbr
	c.IndexEntriesHit += st.IndexEntriesHit
	c.DnormEvals += st.DnormEvals
	c.MatchesDnorm += st.MatchesDnorm
	c.DTWEnvPruned += st.DTWEnvPruned
	c.DTWKeoghPruned += st.DTWKeoghPruned
	c.DTWEvals += st.DTWEvals
}

func (c *kernelCounters) addKNN(k KNNCounts) {
	c.KNNRefined += k.Refined
	c.DTWEnvPruned += k.EnvPruned
	c.DTWKeoghPruned += k.KeoghPruned
}

// jitterSeq returns s with every coordinate moved by up to ±amp.
func jitterSeq(rng *rand.Rand, s *Sequence, amp float64) *Sequence {
	pts := make([]geom.Point, len(s.Points))
	for i, p := range s.Points {
		pts[i] = make(geom.Point, len(p))
		for k, v := range p {
			pts[i][k] = v + (rng.Float64()-0.5)*2*amp
		}
	}
	return &Sequence{Points: pts}
}

// TestKernelCountersUnchanged pins the pruning account of 200 range,
// DTW-range, D-kNN and DTW-kNN queries on a seeded unsharded corpus to the
// sums the kernels produced before they were rewritten branch-free (commit
// a4475ad). A kernel that returned one different bit anywhere a comparison
// reads it — a Dmbr against ε, a Dnorm minimum ordering the kNN heap, an
// abandoned DP — would refine a different set, or the same set in another
// order against another running k-th best, and move a sum.
//
// Two rows were re-recorded since, each for a change of algorithm. The knn
// row when D-kNN became index-driven: the loop that bounded every sequence
// by its smallest Dnorm window refined 8115, the index walk with the
// count-weighted bound refines 5719 (checked against the scan by
// TestKNNIndexWalkMatchesScan). The range row when phase 3 began deciding a
// sequence shorter than the query by the weighted bound of its own MBRs
// (refineOne) instead of one window over all of it: MatchesDnorm 3540 →
// 3510 and DnormEvals 83340 → 84088 — the 30 dropped matches are all false
// alarms (scan D above ε), no scan match is lost, and only candidates
// shorter than the query changed (TestDoMatchesScanEverywhere holds the
// answers to the scan). The dtw rows still say that no kernel moved a bit.
func TestKernelCountersUnchanged(t *testing.T) {
	db, seqs := hotDB(t, 3, 150, 1907)
	rng := rand.New(rand.NewSource(1908))
	dtw := MetricDTW{Window: 16}

	var rangeC, dtwRangeC, knnC, dtwKNNC kernelCounters
	for i := 0; i < 200; i++ {
		src := seqs[rng.Intn(len(seqs))]

		// Range: a window of a stored sequence, or a fresh walk.
		q := randWalkSeq(rng, 20+rng.Intn(40), 3)
		if i%2 == 0 {
			n := 16 + rng.Intn(24)
			off := rng.Intn(src.Len() - n)
			q = jitterSeq(rng, &Sequence{Points: src.Points[off : off+n]}, 0.01)
		}
		_, st, err := db.Search(q, 0.01+rng.Float64()*0.08)
		if err != nil {
			t.Fatal(err)
		}
		rangeC.addStats(st)

		// DTW wants whole sequences: the band dismisses length differences
		// beyond it before any kernel runs.
		whole := jitterSeq(rng, src, 0.02)
		_, st, err = db.SearchMetric(whole, 0.02+rng.Float64()*0.2, dtw)
		if err != nil {
			t.Fatal(err)
		}
		dtwRangeC.addStats(st)

		var b KNNBound
		if _, err := knnBounded(context.Background(), db, q, 1+rng.Intn(8), &b, nil); err != nil {
			t.Fatal(err)
		}
		knnC.addKNN(b.Counts())

		var bw KNNBound
		if _, err := knnBounded(context.Background(), db, whole, 1+rng.Intn(8), &bw, dtw); err != nil {
			t.Fatal(err)
		}
		dtwKNNC.addKNN(bw.Counts())
	}

	for _, c := range []struct {
		name      string
		got, want kernelCounters
	}{
		{"range", rangeC, kernelCounters{CandidatesDmbr: 3798, IndexEntriesHit: 19482, DnormEvals: 84088, MatchesDnorm: 3510}},
		{"dtw-range", dtwRangeC, kernelCounters{CandidatesDmbr: 11062, IndexEntriesHit: 58230, MatchesDnorm: 207,
			DTWEnvPruned: 10172, DTWKeoghPruned: 444, DTWEvals: 446}},
		{"knn", knnC, kernelCounters{KNNRefined: 5719}},
		{"dtw-knn", dtwKNNC, kernelCounters{DTWEnvPruned: 26633, DTWKeoghPruned: 1046, KNNRefined: 2321}},
	} {
		if c.got != c.want {
			t.Errorf("%s counters moved:\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
	// Whatever the knn row is re-recorded to next, it has to stay under
	// what bounding every sequence by its smallest window refined.
	const allSequencesLoop = 8115
	if knnC.KNNRefined >= allSequencesLoop {
		t.Errorf("index-driven D-kNN refined %d sequences, the all-sequences loop refined %d", knnC.KNNRefined, allSequencesLoop)
	}
}

// kernelSink keeps benchmarked results alive.
var kernelSink float64

// BenchmarkDTWFlat times the dynamic program alone — two 300-point
// sequences of the video corpus's dimensionality under a 16-wide band, with
// LB_Keogh's suffix sums in hand as on the indexed path but no cutoff, so
// every cell of the band is computed, two data rows per pass — and reports
// ns per cell.
func BenchmarkDTWFlat(b *testing.B) {
	const dim, n, window = 3, 300, 16
	rng := rand.New(rand.NewSource(1903))
	q := flatten(randWalkSeq(rng, n, dim).Points)
	g, err := NewSegmented(randWalkSeq(rng, n, dim), DefaultPartitionConfig())
	if err != nil {
		b.Fatal(err)
	}
	var ds dtwScratch
	var env dtwEnv
	env.buildEnvelopes(q, n, dim, window)
	if lb := ds.lbKeogh(&env, g, math.Inf(1)); !(lb > 0) {
		b.Fatalf("LB_Keogh %v: the suffix is trivial", lb)
	}
	row := make([]float64, n+1)
	cells := 0
	for i := 1; i <= n; i++ {
		cells += min(n, i+window) - max(1, i-window) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelSink += dtwFlat(q, n, g.Flat, n, dim, window, math.Inf(1), ds.keoghSuf, row)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}

// videoPairs draws a pool of (query, stored sequence) pairs shaped like the
// harness's video workload: three dimensions, queries of 28–96 points,
// stored sequences of 56–512, both partitioned as a database would.
func videoPairs(b *testing.B, pool int) (qs, gs []*Segmented) {
	rng := rand.New(rand.NewSource(2503))
	for i := 0; i < pool; i++ {
		q, err := NewSegmented(randWalkSeq(rng, 28+rng.Intn(69), 3), DefaultPartitionConfig())
		if err != nil {
			b.Fatal(err)
		}
		g, err := NewSegmented(randWalkSeq(rng, 56+rng.Intn(457), 3), DefaultPartitionConfig())
		if err != nil {
			b.Fatal(err)
		}
		qs, gs = append(qs, q), append(gs, g)
	}
	return qs, gs
}

// BenchmarkBestAlign times the alignment kernel over a pool of 1024 video
// shaped pairs, cycled so that which offset bounds lowest and where the
// sums abandon do not repeat from call to call: unbounded, as a range
// refine calls it, and under a cutoff just below the pair's distance, as a
// kNN refines a sequence that does not make the top k — every offset bound,
// every sum abandoned. It reports ns per offset.
func BenchmarkBestAlign(b *testing.B) {
	const pool = 1024
	qs, gs := videoPairs(b, pool)
	var as alignScratch
	dists := make([]float64, pool)
	for c := range dists {
		_, dists[c] = bestAlign(&as, qs[c].side(), gs[c].side(), 3, math.Inf(1))
	}
	for _, mode := range []struct {
		name  string
		scale float64
	}{{"unbounded", math.Inf(1)}, {"bound", 0.9}} {
		b.Run(mode.name, func(b *testing.B) {
			offsets := 0
			for i := 0; i < b.N; i++ {
				c := i % pool
				_, dist := bestAlign(&as, qs[c].side(), gs[c].side(), 3, dists[c]*mode.scale)
				kernelSink += dist
				offsets += abs(qs[c].Seq.Len()-gs[c].Seq.Len()) + 1
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(offsets), "ns/offset")
		})
	}
}

// BenchmarkBuildEnvelopes times the per-position query envelopes of a
// 16-wide band over a pool of 1024 video-shaped queries and reports ns per
// query position.
func BenchmarkBuildEnvelopes(b *testing.B) {
	const pool = 1024
	qs, _ := videoPairs(b, pool)
	var ds dtwEnv
	positions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%pool]
		ds.buildEnvelopes(q.Flat, q.Seq.Len(), 3, 16)
		kernelSink += ds.envLo[0]
		positions += q.Seq.Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(positions), "ns/position")
}

// BenchmarkSweepWindows times the Dnorm window sweep over a pool of 4096
// (partitioning, Dmbr row) cases cycled so that which window is the new
// minimum, and which qualify, does not repeat from call to call: in range
// mode (ε admits about a third of the windows) and with ε = −Inf, the kNN
// bound pass. It reports ns per Dmbr value swept (SearchStats.DnormEvals).
func BenchmarkSweepWindows(b *testing.B) {
	const pool, r, qCount = 4096, 8, 24
	rng := rand.New(rand.NewSource(1904))
	starts := make([]int32, pool*(r+1))
	dists := make([]float64, pool*r)
	wpre := make([]float64, pool*(r+1))
	for c := 0; c < pool; c++ {
		st, ds, wp := starts[c*(r+1):(c+1)*(r+1)], dists[c*r:(c+1)*r], wpre[c*(r+1):(c+1)*(r+1)]
		for j := 0; j < r; j++ {
			count := 4 + rng.Intn(40)
			ds[j] = rng.Float64()
			st[j+1] = st[j] + int32(count)
			wp[j+1] = wp[j] + ds[j]*float64(count)
		}
	}
	for _, mode := range []struct {
		name string
		eps  float64
	}{{"range", 0.4}, {"bound", math.Inf(-1)}} {
		b.Run(mode.name, func(b *testing.B) {
			wins := make([]PointRange, 0, 4*r)
			for i := 0; i < b.N; i++ {
				c := i % pool
				var best float64
				best, wins = sweepWindows(starts[c*(r+1):(c+1)*(r+1)], dists[c*r:(c+1)*r], wpre[c*(r+1):(c+1)*(r+1)],
					qCount, mode.eps, wins[:0])
				kernelSink += best
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r), "ns/eval")
		})
	}
}
