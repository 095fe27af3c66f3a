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
