package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// scanTopK is what a kNN search under a bound must return, from the
// exhaustive scan's distances alone: those within the bound, ordered by
// (Dist, SeqID), the first k.
func scanTopK(t testing.TB, db *Database, q *Sequence, m Metric, k int, bound float64) []MetricMatch {
	t.Helper()
	scan, err := db.SequentialSearchMetric(q, math.MaxFloat64, m)
	if err != nil {
		t.Fatal(err)
	}
	scan = slices.DeleteFunc(scan, func(m MetricMatch) bool { return m.Dist > bound })
	slices.SortFunc(scan, func(a, b MetricMatch) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SeqID, b.SeqID))
	})
	return scan[:min(k, len(scan))]
}

// spikeSeq is a random walk with one point thrown out to coordinate at.
func spikeSeq(rng *rand.Rand, n, dim, where int, at float64) *Sequence {
	s := randWalkSeq(rng, n, dim)
	for k := range s.Points[where] {
		s.Points[where][k] = at
	}
	return s
}

// scaledSeq is a random walk with every coordinate multiplied by scale.
func scaledSeq(rng *rand.Rand, n, dim int, scale float64) *Sequence {
	s := randWalkSeq(rng, n, dim)
	for _, p := range s.Points {
		for k := range p {
			p[k] *= scale
		}
	}
	return s
}

// walkCorpus is a corpus built to disagree with every shortcut the index
// walk could take: lengths from 1 point to 200 so that queries are both
// shorter and longer than stored sequences, every fifth sequence stored
// twice (ties), a plateau, and a sequence with a far spike.
func walkCorpus(rng *rand.Rand, dim, n int) []*Sequence {
	var seqs []*Sequence
	for len(seqs) < n {
		var s *Sequence
		switch len(seqs) % 4 {
		case 0:
			s = randWalkSeq(rng, 1+rng.Intn(12), dim)
		case 1:
			s = randWalkSeq(rng, 20+rng.Intn(40), dim)
		default:
			s = randWalkSeq(rng, 60+rng.Intn(140), dim)
		}
		seqs = append(seqs, s)
		if len(seqs)%5 == 0 {
			seqs = append(seqs, &Sequence{Points: s.Points})
		}
	}
	return append(seqs, plateauSeq(rng, 30, dim), spikeSeq(rng, 50, dim, 7, 40))
}

// walkQueries draws queries shorter than, as long as and longer than the
// stored sequences: windows of them (distance 0 to their source and its
// twin), whole ones, fresh walks, one point.
func walkQueries(rng *rand.Rand, seqs []*Sequence, dim int) []*Sequence {
	qs := []*Sequence{randWalkSeq(rng, 1, dim), randWalkSeq(rng, 150, dim), randWalkSeq(rng, 35, dim)}
	for len(qs) < 9 {
		src := seqs[rng.Intn(len(seqs))]
		n := 1 + rng.Intn(src.Len())
		off := rng.Intn(src.Len() - n + 1)
		qs = append(qs, &Sequence{Points: src.Points[off : off+n]})
	}
	return qs
}

// checkWalkMatchesScan compares the indexed kNN with the scan under D and
// unconstrained DTW, for every k and bound the issue names: k of 1, 10,
// every sequence and more than there are; no bound, the median distance, 0
// — the bound a pooling one, so that the search's offers are live.
func checkWalkMatchesScan(t *testing.T, db *Database, qs []*Sequence, label string) {
	t.Helper()
	n := db.Len()
	for _, m := range []Metric{MetricD{}, MetricDTW{Window: -1}} {
		for qi, q := range qs {
			all := scanTopK(t, db, q, m, n, math.Inf(1))
			for _, k := range []int{1, 10, n, n + 5} {
				for _, bound := range []float64{math.Inf(1), all[len(all)/2].Dist, 0} {
					want := slices.DeleteFunc(slices.Clone(all), func(m MetricMatch) bool { return m.Dist > bound })
					want = want[:min(k, len(want))]
					live := NewKNNBound(k)
					live.Tighten(bound)
					got, err := knnBounded(context.Background(), db, q, k, live, m)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s %s query %d k %d bound %g: %d results, scan %d", label, m.Name(), qi, k, bound, len(got), len(want))
					}
					for i := range got {
						if got[i].SeqID != want[i].SeqID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("%s %s query %d k %d bound %g result %d: got {seq %d dist %v}, scan {seq %d dist %v}",
								label, m.Name(), qi, k, bound, i, got[i].SeqID, got[i].Dist, want[i].SeqID, want[i].Dist)
						}
					}
					if k <= len(want) && live.Load() != want[k-1].Dist {
						t.Fatalf("%s %s query %d k %d bound %g: the search left the bound at %v, the k-th best is %v",
							label, m.Name(), qi, k, bound, live.Load(), want[k-1].Dist)
					}
				}
			}
		}
	}
}

// TestKNNIndexWalkMatchesScan is the differential test of the index-driven
// D-kNN and of the DTW ladder beside it: ids and distance bits equal the exhaustive scan's, sorted by
// (Dist, SeqID) and cut at k, on a fresh database, after removals, and
// after appends have re-partitioned stored sequences.
func TestKNNIndexWalkMatchesScan(t *testing.T) {
	for _, dim := range []int{2, 3, 8} {
		for _, cfg := range []PartitionConfig{DefaultPartitionConfig(), {QueryExtent: 0.3, MaxPoints: 4}} {
			rng := rand.New(rand.NewSource(int64(2000 + dim)))
			// A small fanout gives the walk a tree of height 3 to prune.
			db, err := NewDatabase(Options{Dim: dim, Partition: cfg, MaxEntries: 8})
			if err != nil {
				t.Fatal(err)
			}
			seqs := walkCorpus(rng, dim, 60)
			if _, err := db.AddAll(seqs); err != nil {
				t.Fatal(err)
			}
			qs := walkQueries(rng, seqs, dim)
			label := fmt.Sprintf("dim %d maxpoints %d", dim, cfg.MaxPoints)
			checkWalkMatchesScan(t, db, qs, label)

			for id := uint32(0); int(id) < len(seqs); id += 3 {
				if err := db.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			checkWalkMatchesScan(t, db, qs, label+" after Remove")

			for id := uint32(1); int(id) < len(seqs); id += 6 {
				if err := db.AppendPoints(id, randWalkSeq(rng, 1+rng.Intn(30), dim).Points); err != nil {
					t.Fatal(err)
				}
			}
			checkWalkMatchesScan(t, db, qs, label+" after AppendPoints")
			db.Close()
		}
	}
}

// TestKNNShortSequenceStraddlesQueryMBRs: a stored sequence shorter than
// the query that lies across two query MBRs — its first half on one, its
// second half on the other — is at distance ≈ 0, though as a whole it is
// far from each of the two. The smallest Dnorm window over query MBRs, the
// bound this search used to rank by, puts it at 0.7 and dismissed it.
func TestKNNShortSequenceStraddlesQueryMBRs(t *testing.T) {
	db := newTestDB(t, 2)
	run := func(n int, x, y float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{x + float64(i)*1e-6, y}
		}
		return pts
	}
	q := &Sequence{Points: append(run(10, 0, 0), run(10, 1, 1)...)}
	straddler := &Sequence{Label: "straddler", Points: append(run(5, 0, 0), run(5, 1, 1)...)}
	decoy := &Sequence{Label: "decoy", Points: append(run(5, 0, 0), run(5, 0.5, 0.5)...)}
	if _, err := db.AddAll([]*Sequence{straddler, decoy}); err != nil {
		t.Fatal(err)
	}
	got, err := db.SearchKNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := scanTopK(t, db, q, MetricD{}, 1, math.Inf(1)); len(got) != 1 || got[0].SeqID != want[0].SeqID || got[0].Dist != want[0].Dist {
		t.Fatalf("nearest is %s at %v, the scan says %s at %v", got[0].Seq.Label, got[0].Dist, want[0].Seq.Label, want[0].Dist)
	}
}

// knnSeqBoundRef is knnSeqBound from the seed forms: Rect.MinDist and
// dnormCalc's closure sweep, role of query and sequence by length.
func knnSeqBoundRef(a, b *Segmented) (bound, minDmbr float64) {
	short, long := a, b
	if short.Seq.Len() > long.Seq.Len() {
		short, long = long, short
	}
	var sum, total float64
	minDmbr = math.Inf(1)
	for _, m := range short.MBRs {
		c := newDnormCalc(m.Rect, m.Count(), long)
		for _, d := range c.dists {
			minDmbr = min(minDmbr, d)
		}
		sum += c.sweep(math.Inf(-1), nil) * float64(m.Count())
		total += c.wpre[len(long.MBRs)]
	}
	k, d := short.Seq.Len(), short.Seq.Dim()
	slack := alignSlack(k, d)
	bound = minDmbr * slack
	if w := (sum - float64(len(long.MBRs))*0x1p-52*total) / float64(k) * slack; w > bound {
		bound = w
	}
	return bound, minDmbr
}

// TestKNNBoundChain checks the chain the kNN search prunes by, as computed
// floats: slack·min Dmbr ≤ the sequence bound ≤ BestAlignment's D, for the
// alignment kernel's random and adversarial shapes and for the ones that
// attack this bound — constant dimensions, spikes that swallow the running
// sums, one-point sequences, either side the longer, exact duplicates
// (D = 0 must give bound 0), the straddler, coordinates at 1e200 whose
// squares overflow. The kernel must equal the seed-form reference bit for
// bit, and the walk's key for a pair — the shrunk smallest Dmbr — sits
// under it all.
func TestKNNBoundChain(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 8} {
		rng := rand.New(rand.NewSource(int64(2100 + dim)))
		def := DefaultPartitionConfig()
		cs := alignCases(rng, dim)
		walk := randWalkSeq(rng, 80, dim)
		flat := randWalkSeq(rng, 60, dim)
		for _, p := range flat.Points {
			p[0] = 0.25 // a constant dimension
		}
		lo, hi := plateauSeq(rng, 10, dim), plateauSeq(rng, 10, dim)
		cs = append(cs,
			alignCase{"constant-dim", &Sequence{Points: flat.Points[10:40]}, flat, def},
			alignCase{"constant-dim-vs-walk", flat, walk, def},
			alignCase{"spike-early", randWalkSeq(rng, 20, dim), spikeSeq(rng, 90, dim, 3, 1e16), def},
			alignCase{"spike-late", randWalkSeq(rng, 20, dim), spikeSeq(rng, 90, dim, 80, 1e16), def},
			alignCase{"spike-in-query", spikeSeq(rng, 30, dim, 12, 1e8), randWalkSeq(rng, 90, dim), def},
			alignCase{"spike-1e200", randWalkSeq(rng, 20, dim), spikeSeq(rng, 90, dim, 40, 1e200), def},
			alignCase{"one-point-both", randWalkSeq(rng, 1, dim), randWalkSeq(rng, 1, dim), def},
			alignCase{"one-point-sequence", randWalkSeq(rng, 40, dim), randWalkSeq(rng, 1, dim), def},
			alignCase{"duplicate", walk, &Sequence{Points: walk.Points}, def},
			alignCase{"duplicate-window", &Sequence{Points: walk.Points[15:50]}, walk, def},
			alignCase{"duplicate-query-longer", walk, &Sequence{Points: walk.Points[15:50]}, def},
			alignCase{"straddler", &Sequence{Points: append(append([]geom.Point{}, lo.Points...), hi.Points...)},
				&Sequence{Points: append(append([]geom.Point{}, lo.Points[:5]...), hi.Points[:5]...)}, def},
			alignCase{"scale-1e200", scaledSeq(rng, 20, dim, 1e200), scaledSeq(rng, 70, dim, 1e200), def},
			alignCase{"scale-1e200-vs-unit", randWalkSeq(rng, 20, dim), scaledSeq(rng, 70, dim, 1e200), def},
			alignCase{"scale-1e-200", scaledSeq(rng, 20, dim, 1e-200), scaledSeq(rng, 70, dim, 1e-200), def},
		)
		var p3 phase3Scratch
		for _, c := range cs {
			qseg, err := NewSegmented(c.q, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewSegmented(c.s, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("dim %d %s", dim, c.name)
			_, exact := BestAlignment(c.q.Points, c.s.Points)
			bound := knnSeqBound(&p3, qseg.side(), g.side(), dim)
			ref, minDmbr := knnSeqBoundRef(qseg, g)
			if math.Float64bits(bound) != math.Float64bits(ref) {
				t.Fatalf("%s: kernel bound %v, seed-form reference %v", label, bound, ref)
			}
			if !(bound <= exact) {
				t.Fatalf("%s: bound %v above D %v", label, bound, exact)
			}
			k := min(c.q.Len(), c.s.Len())
			if floor := minDmbr * alignSlack(k, dim); !(floor <= bound) {
				t.Fatalf("%s: bound %v under slack·min Dmbr %v", label, bound, floor)
			}
			if key := minDmbr * alignSlack(c.q.Len(), dim); !(key <= bound) {
				t.Fatalf("%s: bound %v under the walk's key %v", label, bound, key)
			}
			if exact == 0 && bound != 0 {
				t.Fatalf("%s: D is 0, bound %v", label, bound)
			}
		}
	}
}
