package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// FuzzRangeMatchesScan holds the paper's range answer and Explain to the
// scan over one stored sequence S and one query Q built from the input: S of
// 1–200 points shaped as a random walk, two flat runs, or points on a grid
// of 2⁻¹⁰ (where a common move is exact, so every point distance is one
// float and D a mean that can round below it); ten points of S from spikeAt
// on thrown out to spike (1e200 overflows a squared Dmbr); Q of 1–200 points
// a window of S when it is not longer, otherwise a sequence of the same
// shape with S pasted into it — both ways at some offset — every coordinate
// then moved by shift; ε the scan's distance times epsScale (1 is a tie).
// Every sequence the scan finds within ε must be in Do's Range answer, and
// Explain must say "matched" exactly when Do returns S.
func FuzzRangeMatchesScan(f *testing.F) {
	// The straddler: 10 points, half on each 10-point run of the query.
	f.Add(uint8(1), int64(0), uint8(9), uint8(19), uint8(5), 0.0, uint8(0), 0.0, 1.0)
	// A match behind an overflowed Dmbr (TestRangeFindsMatchBehindOverflowedDmbr).
	f.Add(uint8(0), int64(179), uint8(199), uint8(10), uint8(187), 0.0, uint8(5), 1e200, 1.0)
	// A tie Explain once labelled "pruned-dmbr" while Search returned it.
	f.Add(uint8(2), int64(5), uint8(5), uint8(5), uint8(0), 0.0078125, uint8(0), 0.0, 1.0)
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, sLen, qLen, off uint8, shift float64, spikeAt uint8, spike, epsScale float64) {
		rng := rand.New(rand.NewSource(seed))
		gen := func(n int) []geom.Point {
			switch shape % 3 {
			case 1:
				pts := make([]geom.Point, n)
				for i := range pts {
					v := float64(2 * i / n)
					pts[i] = geom.Point{v + float64(i)*1e-6, v, v}
				}
				return pts
			case 2:
				pts := make([]geom.Point, n)
				for i := range pts {
					pts[i] = geom.Point{float64(rng.Intn(1024)) / 1024, float64(rng.Intn(1024)) / 1024, float64(rng.Intn(1024)) / 1024}
				}
				return pts
			}
			return randWalkSeq(rng, n, 3).Points
		}
		ns, nq := 1+int(sLen)%200, 1+int(qLen)%200
		s := &Sequence{Points: gen(ns)}
		if spike != 0 {
			for i := int(spikeAt); i < int(spikeAt)+10 && i < ns; i++ {
				s.Points[i] = geom.Point{spike * (1 + float64(i)*1e-3), spike, spike}
			}
		}
		var qp []geom.Point
		if nq <= ns {
			o := int(off) % (ns - nq + 1)
			for _, p := range s.Points[o : o+nq] {
				qp = append(qp, p.Clone())
			}
		} else {
			qp = gen(nq)
			o := int(off) % (nq - ns + 1)
			for i, p := range s.Points {
				qp[o+i] = p.Clone()
			}
		}
		for _, p := range qp {
			for k := range p {
				p[k] += shift
			}
		}
		q := &Sequence{Points: qp}
		if s.Validate() != nil || q.Validate() != nil {
			return // a spike or a shift past float64: refused everywhere
		}
		db := newTestDB(t, 3)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		all, err := db.Do(ctx, Query{Seq: q, Kind: Scan, Eps: math.MaxFloat64})
		if err != nil {
			t.Fatal(err)
		}
		if len(all.Matches) == 0 {
			return // D overflows: nothing is within any ε
		}
		eps := all.Matches[0].Dist * epsScale
		if !(eps >= 0 && eps <= math.MaxFloat64) {
			eps = all.Matches[0].Dist
		}
		scan, err := db.Do(ctx, Query{Seq: q, Kind: Scan, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Do(ctx, Query{Seq: q, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) < len(scan.Matches) {
			t.Fatalf("|S| %d |Q| %d eps %v: the scan finds S at D = %v, the range search dismisses it", ns, nq, eps, all.Matches[0].Dist)
		}
		ex, err := db.Explain(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if c := ex.Candidates[0]; (c.Phase == "matched") != (len(got.Matches) == 1) {
			t.Fatalf("|S| %d |Q| %d eps %v: Explain says %s (Dmbr %v, bound %v), Search returned %d", ns, nq, eps, c.Phase, c.MinDmbr, c.MinDnorm, len(got.Matches))
		}
	})
}
