package txn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// walkSeq is a bounded random walk in the unit cube: neighbouring points
// are close, so MCOST packs several into one MBR and windows of a stored
// sequence match it at small eps.
func walkSeq(rng *rand.Rand, dim, n int) *core.Sequence {
	pts := make([]geom.Point, n)
	cur := make(geom.Point, dim)
	for k := range cur {
		cur[k] = rng.Float64()
	}
	for i := range pts {
		next := make(geom.Point, dim)
		for k := range next {
			next[k] = math.Min(1, math.Max(0, cur[k]+(rng.Float64()-0.5)*0.1))
		}
		pts[i], cur = next, next
	}
	return &core.Sequence{Points: pts}
}

// TestPhase3HitsEquivalenceTxn is the transaction-layer leg of core's
// TestPhase3HitsEquivalence: the same corpus shapes (a removed id, a
// 3-point sequence shorter than a query MBR, a 70-point query that has
// more than 64 query MBRs under MaxPoints 1) over dims {2,3,4,8} and an
// eps sweep. The txn answer — base through the hit-driven kernel, delta
// through the same kernel with every pair evaluated — must equal a plain
// Database holding the same content (which core pins to the seed
// reference) bit for bit, with the delta non-empty, with the corpus
// split between base and delta, and fully folded.
func TestPhase3HitsEquivalenceTxn(t *testing.T) {
	ctx := context.Background()
	cfgs := []core.PartitionConfig{core.DefaultPartitionConfig(), {QueryExtent: 0.3, MaxPoints: 1}}
	for _, dim := range []int{2, 3, 4, 8} {
		for ci, cfg := range cfgs {
			rng := rand.New(rand.NewSource(int64(900 + 10*dim + ci)))
			opts := core.Options{Dim: dim, Partition: cfg}
			base, err := core.NewDatabase(opts)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Wrap(base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewDatabase(opts)
			if err != nil {
				t.Fatal(err)
			}
			var long []*core.Sequence
			add := func(from, to int) {
				for i := from; i < to; i++ {
					n := 40 + rng.Intn(100)
					if i == 7 || i == 25 {
						n = 3
					}
					s := walkSeq(rng, dim, n)
					id, err := db.Add(clonePoints(s))
					if err != nil {
						t.Fatal(err)
					}
					if rid, err := ref.Add(clonePoints(s)); err != nil || rid != id {
						t.Fatalf("ref Add: id %d vs %d err=%v", rid, id, err)
					}
					if n > 70 && i != 11 && i != 30 {
						long = append(long, s)
					}
				}
			}
			remove := func(id uint32) {
				if err := db.Remove(id); err != nil {
					t.Fatal(err)
				}
				if err := ref.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string, qs []*core.Sequence) {
				t.Helper()
				for _, eps := range []float64{0.02, 0.05, 0.15, 0.3, 0.6} {
					bout, _, err := db.SearchBatchCtx(ctx, qs, eps)
					if err != nil {
						t.Fatal(err)
					}
					for qi, q := range qs {
						want, _, err := ref.SearchCtx(ctx, q, eps)
						if err != nil {
							t.Fatal(err)
						}
						got, _, err := db.SearchCtx(ctx, q, eps)
						if err != nil {
							t.Fatal(err)
						}
						for path, ms := range map[string][]core.Match{"single": got, "batch": bout[qi]} {
							label := fmt.Sprintf("dim %d maxpoints %d %s eps %g query %d %s", dim, cfg.MaxPoints, stage, eps, qi, path)
							if len(ms) != len(want) {
								t.Fatalf("%s: %d matches, reference %d", label, len(ms), len(want))
							}
							for i := range ms {
								g, w := ms[i], want[i]
								if g.SeqID != w.SeqID || math.Float64bits(g.MinDnorm) != math.Float64bits(w.MinDnorm) ||
									!reflect.DeepEqual(g.Interval.Ranges(), w.Interval.Ranges()) {
									t.Fatalf("%s: match %d is {%d %v %v}, reference {%d %v %v}", label, i,
										g.SeqID, g.MinDnorm, g.Interval.Ranges(), w.SeqID, w.MinDnorm, w.Interval.Ranges())
								}
							}
						}
					}
				}
			}
			queries := func() []*core.Sequence {
				var qs []*core.Sequence
				for i := 0; i < 5; i++ {
					src := long[rng.Intn(len(long))]
					n := 16 + rng.Intn(16)
					if i == 0 {
						n = 70
					}
					off := rng.Intn(src.Len() - n)
					qs = append(qs, &core.Sequence{Points: src.Points[off : off+n]})
				}
				return append(qs, walkSeq(rng, dim, 30))
			}

			add(0, 20)
			remove(11)
			check("delta only", queries())
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			add(20, 36)
			remove(30) // a delta sequence
			remove(4)  // a folded one, removed through the delta
			if s := db.Stats(); s.DeltaAdds == 0 || s.DeltaRemoved == 0 {
				t.Fatalf("delta unexpectedly empty: %+v", s)
			}
			qs := queries()
			check("base+delta", qs)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if s := db.Stats(); s.DeltaAdds+s.DeltaOverlays+s.DeltaRemoved != 0 {
				t.Fatalf("delta not folded: %+v", s)
			}
			check("folded", qs)
			db.Close()
			ref.Close()
		}
	}
}

// TestAnswerOwnsItsMemory is the transaction-layer leg of core's test of
// that name: an answer merged from the folded base (matches sharing the
// base answer's interval slab) and a non-empty delta (each match its own
// interval) survives later searches untouched, and growing one match's
// interval past its end — a base match's, then a delta match's — changes no
// other match.
func TestAnswerOwnsItsMemory(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	db := newMem(t, 3)
	var q *core.Sequence
	for i := 0; i < 400; i++ {
		if i == 250 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		s := walkSeq(rng, 3, 40+rng.Intn(100))
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			q = &core.Sequence{Points: s.Points[4:36]}
		}
	}
	if s := db.Stats(); s.DeltaAdds != 150 {
		t.Fatalf("delta holds %d adds, want 150", s.DeltaAdds)
	}
	const eps = 0.7
	ms, _, err := db.SearchCtx(ctx, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) < 300 || ms[len(ms)-1].SeqID < 250 || ms[0].SeqID >= 250 {
		t.Fatalf("%d matches over ids %d..%d; want >= 300 on both sides of id 250", len(ms), ms[0].SeqID, ms[len(ms)-1].SeqID)
	}
	copyOf := func() [][]core.PointRange {
		out := make([][]core.PointRange, len(ms))
		for i, m := range ms {
			out[i] = append([]core.PointRange(nil), m.Interval.Ranges()...)
		}
		return out
	}
	same := func(stage string, want [][]core.PointRange) {
		t.Helper()
		for i, m := range ms {
			if !reflect.DeepEqual(m.Interval.Ranges(), want[i]) {
				t.Fatalf("%s: match %d (id %d) is %v, was %v", stage, i, m.SeqID, m.Interval.Ranges(), want[i])
			}
		}
	}
	want := copyOf()
	for i := 0; i < 50; i++ {
		if _, _, err := db.SearchCtx(ctx, walkSeq(rng, 3, 20+rng.Intn(40)), eps*float64(1+i%2)/2); err != nil {
			t.Fatal(err)
		}
	}
	same("after 50 searches", want)
	for _, i := range []int{len(ms) / 4, len(ms) - 1} {
		rs := ms[i].Interval.Ranges()
		end := rs[len(rs)-1].End
		grown := core.PointRange{Start: end + 5, End: end + 9}
		ms[i].Interval.Add(grown)
		want[i] = append(want[i], grown)
		same(fmt.Sprintf("after growing match %d (id %d)", i, ms[i].SeqID), want)
	}
}
