package mdseq_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	mdseq "repro"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/txn"
)

// TestDoMatchesScanEverywhere drives every query kind under every metric
// through Do — one call, the same on every topology — on a plain database,
// 1 and 4 shards and a transactional database with unfolded adds, appends
// and removes, each again with a cache on (every query asked twice, so the
// second answer is a hit wherever the topology caches), and holds each
// answer to the exhaustive scan of the same database: a range search under
// D or DTW is the scan's ε-ball, ids and distance bits; a kNN is the scan
// sorted by (distance, id) and cut at k; the paper's range answer dismisses
// nothing the scan under D reports, and is the same matches, bounds and
// intervals on every topology; and the scans themselves agree with a plain
// database's. The corpus is the one core's index-walk test uses — lengths
// from 1 point to 200 on both sides of the query's, twins, a plateau, a far
// spike — so queries are shorter than, as long as and longer than what is
// stored, and every range is asked again at ε = the scan's distance to the
// query's nearest sequence: a tie, which a range search must not dismiss.
// edgeCorpus adds the shapes a range search once dismissed: a short stored
// sequence lying across two query MBRs, a clip library (short clips cut from
// shot-structured sequences, queried with long windows of those), and a
// sequence whose Dmbr overflows ahead of a match — and hostile coordinates:
// −0 and 5e-324, in a 1-point stored sequence asked for by a 1-point query.
// Every kNN is asked again at k = n + 5, past the live count, and once more
// at every k up to 22 after removals and appends hit the top of a ranking.
func TestDoMatchesScanEverywhere(t *testing.T) {
	ctx := context.Background()
	type topology struct {
		name string
		open func() (shard.DB, func() error)
	}
	sharded := func(n int) func() (shard.DB, func() error) {
		return func() (shard.DB, func() error) {
			db, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, n)
			if err != nil {
				t.Fatal(err)
			}
			return db, func() error { return nil }
		}
	}
	topologies := []topology{
		{"core", func() (shard.DB, func() error) {
			db, err := mdseq.Open(mdseq.Options{Dim: 3})
			if err != nil {
				t.Fatal(err)
			}
			return db, func() error { return nil }
		}},
		{"shard1", sharded(1)},
		{"shard4", sharded(4)},
		{"txn", func() (shard.DB, func() error) {
			db, err := txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			return db, db.Checkpoint
		}},
	}

	// byLabel is an answer in an order no id numbering enters.
	byLabel := func(ms []mdseq.Match) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = fmt.Sprintf("%s dist=%x dnorm=%x off=%d %v", m.Seq.Label, math.Float64bits(m.Dist), math.Float64bits(m.MinDnorm), m.Offset, m.Interval)
		}
		slices.Sort(out)
		return out
	}
	byID := func(ms []mdseq.Match) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = fmt.Sprintf("%d:%x", m.SeqID, math.Float64bits(m.Dist))
		}
		return out
	}
	metrics := []core.Metric{nil, core.MetricD{}, core.MetricDTW{Window: -1}, core.MetricDTW{Window: 2}}
	name := func(m core.Metric) string {
		if m == nil {
			return "paper"
		}
		return fmt.Sprintf("%s%v", m.Name(), m)
	}

	var queries []*mdseq.Sequence
	reference := map[string][]string{} // a plain database's answers, by label
	held := 0                          // matches and neighbors held to the scan
	for _, tp := range topologies {
		for _, cached := range []bool{false, true} {
			label := tp.name
			if cached {
				label += "+cache"
			}
			rng := rand.New(rand.NewSource(2022))
			db, fold := tp.open()
			defer db.Close()
			seqs := doCorpus(rng, 60)
			base := len(seqs)
			extra, extraQueries := edgeCorpus()
			seqs = append(seqs, extra...)
			n := fillAcrossFold(t, db, fold, seqs)
			if cached {
				db.SetCache(mdseq.NewQueryCache(mdseq.QueryCacheConfig{}))
			}
			if queries == nil {
				queries = append(doQueries(rng, seqs[:base]), extraQueries...)
			}
			do := func(q mdseq.Query) []mdseq.Match {
				t.Helper()
				res, err := db.Do(ctx, q)
				if err != nil {
					t.Fatalf("%s %+v: %v", label, q, err)
				}
				if q.Kind != mdseq.Scan {
					held += len(res.Matches)
				}
				if cached {
					again, err := db.Do(ctx, q)
					if err != nil || fmt.Sprint(byLabel(again.Matches)) != fmt.Sprint(byLabel(res.Matches)) {
						t.Fatalf("%s %+v: asked again, err %v and\n got %v\nwant %v", label, q, err, byLabel(again.Matches), byLabel(res.Matches))
					}
				}
				return res.Matches
			}
			same := func(what string, got []string) {
				t.Helper()
				if want, ok := reference[what]; !ok {
					reference[what] = got
				} else if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %s differs from the plain database's:\n got %v\nwant %v", label, what, got, want)
				}
			}
			for qi, q := range queries {
				for _, m := range metrics {
					all := do(mdseq.Query{Seq: q, Kind: mdseq.Scan, Eps: math.MaxFloat64, Metric: m})
					same(fmt.Sprintf("query %d scan %s", qi, name(m)), byLabel(all))
					// ε at the scan's own distance to the nearest sequence not
					// at 0 puts a sequence exactly on the threshold: the D of a
					// mean can round below its every term, so below the Dmbr
					// phase 2 compares (the tie pair of doCorpus/doQueries).
					own := math.Inf(1)
					for _, r := range all {
						if r.Dist > 0 && r.Dist < own {
							own = r.Dist
						}
					}
					for _, eps := range []float64{0, 0.1, 0.3, own} {
						what := fmt.Sprintf("query %d %s eps %g", qi, name(m), eps)
						scan := do(mdseq.Query{Seq: q, Kind: mdseq.Scan, Eps: eps, Metric: m})
						got := do(mdseq.Query{Seq: q, Eps: eps, Metric: m})
						if m != nil {
							if fmt.Sprint(byID(got)) != fmt.Sprint(byID(scan)) {
								t.Fatalf("%s %s: range answer is not the scan's:\n got %v\nscan %v", label, what, byID(got), byID(scan))
							}
							continue
						}
						same(what, byLabel(got))
						for _, r := range scan {
							if !slices.ContainsFunc(got, func(m mdseq.Match) bool { return m.SeqID == r.SeqID }) {
								t.Fatalf("%s %s: false dismissal of sequence %d (%s) at D = %v", label, what, r.SeqID, r.Seq.Label, r.Dist)
							}
						}
					}
					if m == nil {
						continue // a kNN ranks by D; nil is MetricD
					}
					ranked := slices.DeleteFunc(all, func(r mdseq.Match) bool { return math.IsInf(r.Dist, 1) })
					slices.SortFunc(ranked, func(a, b mdseq.Match) int {
						return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SeqID, b.SeqID))
					})
					for _, k := range []int{1, 10, n + 5} {
						got := do(mdseq.Query{Seq: q, Kind: mdseq.KNN, K: k, Metric: m})
						if want := ranked[:min(k, len(ranked))]; fmt.Sprint(byID(got)) != fmt.Sprint(byID(want)) {
							t.Fatalf("%s query %d %s k %d: neighbors are not the scan's nearest:\n got %v\nscan %v", label, qi, name(m), k, byID(got), byID(want))
						}
					}
				}
			}

			// A delta aimed at the top of one query's ranking: of the six
			// nearest sequences stored before the fold (the first two thirds,
			// fillAcrossFold), three are removed and three have points
			// appended, so a transactional base ranks superseded and removed
			// versions among its nearest — eleven dropped base ids with
			// fillAcrossFold's five. Every kNN up to twice that k is held to
			// the scan: a base asked for too few neighbors comes up short.
			q := queries[3]
			folded := map[string]bool{}
			for _, s := range seqs[:2*len(seqs)/3] {
				folded[s.Label] = true
			}
			rankedBy := func(m core.Metric) []mdseq.Match {
				all := do(mdseq.Query{Seq: q, Kind: mdseq.Scan, Eps: math.MaxFloat64, Metric: m})
				ranked := slices.DeleteFunc(all, func(r mdseq.Match) bool { return math.IsInf(r.Dist, 1) })
				slices.SortFunc(ranked, func(a, b mdseq.Match) int {
					return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.SeqID, b.SeqID))
				})
				return ranked
			}
			var targets []uint32
			for _, r := range rankedBy(core.MetricD{}) {
				if folded[r.Seq.Label] && len(targets) < 6 {
					targets = append(targets, r.SeqID)
				}
			}
			if len(targets) < 6 {
				t.Fatalf("%s: only %d sequences stored before the fold rank near query 3", label, len(targets))
			}
			for i, id := range targets {
				var err error
				if i%2 == 0 {
					err = db.Remove(id)
				} else {
					err = db.AppendPoints(id, []mdseq.Point{{0.5, 0.5, 0.5}, {0.6, 0.5, 0.4}})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
				ranked := rankedBy(m)
				for k := 1; k <= 22; k++ {
					got := do(mdseq.Query{Seq: q, Kind: mdseq.KNN, K: k, Metric: m})
					if want := ranked[:min(k, len(ranked))]; fmt.Sprint(byID(got)) != fmt.Sprint(byID(want)) {
						t.Fatalf("%s top of query 3's ranking rewritten, %s k %d: neighbors are not the scan's nearest:\n got %v\nscan %v", label, name(m), k, byID(got), byID(want))
					}
				}
			}
		}
	}
	if held < 10000 {
		t.Fatalf("only %d matches and neighbors were held to the scan: the corpus or the thresholds no longer exercise the answers", held)
	}
}

// doCorpus is core's walkCorpus under labels: lengths from 1 point to 200,
// every fifth sequence stored twice, a plateau, a sequence with a far spike.
func doCorpus(rng *rand.Rand, n int) []*mdseq.Sequence {
	var seqs []*mdseq.Sequence
	add := func(s *mdseq.Sequence) {
		s.Label = fmt.Sprintf("w%03d", len(seqs))
		seqs = append(seqs, s)
	}
	for len(seqs) < n {
		var s *mdseq.Sequence
		switch len(seqs) % 4 {
		case 0:
			s = walk(rng, 1+rng.Intn(12))
		case 1:
			s = walk(rng, 20+rng.Intn(40))
		default:
			s = walk(rng, 60+rng.Intn(140))
		}
		add(s)
		if len(seqs)%5 == 0 {
			add(&mdseq.Sequence{Points: s.Points})
		}
	}
	plateau := walk(rng, 30)
	for i := range plateau.Points {
		plateau.Points[i] = plateau.Points[0]
	}
	add(plateau)
	spike := walk(rng, 50)
	spike.Points[7] = mdseq.Point{40, 40, 40}
	add(spike)
	// The tie's stored side trades places with the first walk, so that a
	// transactional database holds it in its indexed base.
	add(constant(2, 20))
	last := len(seqs) - 1
	seqs[0], seqs[last] = seqs[last], seqs[0]
	return seqs
}

// constant is n points at (v, v, v). Twenty at 2 and twenty at 2.1 are
// doCorpus's and doQueries' tie pair: every point distance, and so every
// Dmbr, is 0.1732050807568879, while their mean, D, rounds to
// 0.1732050807568878.
func constant(v float64, n int) *mdseq.Sequence {
	pts := make([]mdseq.Point, n)
	for i := range pts {
		pts[i] = mdseq.Point{v, v, v}
	}
	return &mdseq.Sequence{Points: pts}
}

// doQueries is core's walkQueries: one point, fresh walks longer and shorter
// than most of what is stored, windows of stored sequences (distance 0 to
// their source and its twin), and the tie pair's query, far from the walks.
func doQueries(rng *rand.Rand, seqs []*mdseq.Sequence) []*mdseq.Sequence {
	qs := []*mdseq.Sequence{walk(rng, 1), walk(rng, 150), walk(rng, 35)}
	for len(qs) < 9 {
		src := seqs[rng.Intn(len(seqs))]
		n := 1 + rng.Intn(src.Len())
		off := rng.Intn(src.Len() - n + 1)
		qs = append(qs, &mdseq.Sequence{Points: src.Points[off : off+n]})
	}
	return append(qs, constant(2.1, 20))
}

// edgeCorpus is the stored sequences and the queries of the shapes the
// paper's range search once dismissed, each found by the scan at D ≈ 0:
//
//   - the straddler: 10 points, half on each of two 10-point runs of a
//     20-point query, so each half lies whole in a query MBR and the
//     sequence as a whole is far from both (core's
//     TestKNNShortSequenceStraddlesQueryMBRs). One window of all of it
//     against a query MBR bounded nothing, and it was found only at
//     ε ≥ 0.71;
//   - a clip library: shot-structured sequences — runs of a still frame with
//     a little jitter, the way video features hold between cuts — with
//     clips of 8–32 points cut from them, queried with 60–119-point windows
//     of the same sequences, so clips lie inside a query across its MBRs;
//   - a 200-point walk with points 5–14 near 1e200, queried with a copy of
//     its points 187–197: the squared Dmbr of the far MBRs overflows, and the
//     running sums of every window after them were Inf − Inf. (The walk's
//     MBRs there are shorter than the query's one, so only windows across
//     MBRs can find it.)
//
// and the hostile coordinates: a 1-point stored sequence at the origin
// written with −0 and the smallest subnormal, 5e-324, asked for by a
// 1-point query that spells the origin the other way round, and a walk of
// −0, 0, ±5e-324 coordinates with a window of itself as the query. Every
// squared difference underflows, so the scan finds the 1-point pair at
// distance 0 although no coordinate of theirs shares its bits — what ε = 0
// must return.
func edgeCorpus() (seqs, queries []*mdseq.Sequence) {
	add := func(s *mdseq.Sequence) {
		s.Label = fmt.Sprintf("e%03d", len(seqs))
		seqs = append(seqs, s)
	}
	run := func(n int, v float64) []mdseq.Point {
		pts := make([]mdseq.Point, n)
		for i := range pts {
			pts[i] = mdseq.Point{v + float64(i)*1e-6, v, v}
		}
		return pts
	}
	add(&mdseq.Sequence{Points: append(run(5, 0), run(5, 1)...)})
	queries = append(queries, &mdseq.Sequence{Points: append(run(10, 0), run(10, 1)...)})

	far := walk(rand.New(rand.NewSource(170)), 200)
	for i := 5; i < 15; i++ {
		far.Points[i] = mdseq.Point{1e200 * (1 + float64(i)*1e-3), 1e200, 1e200}
	}
	add(far)
	queries = append(queries, &mdseq.Sequence{Points: clonePoints(far.Points[187:198])})

	rng := rand.New(rand.NewSource(7))
	var films []*mdseq.Sequence
	for f := 0; f < 4; f++ {
		film := shots(rng, 120+rng.Intn(80))
		films = append(films, film)
		add(film)
		for c := 0; c < 3; c++ {
			n := 8 + rng.Intn(25)
			off := rng.Intn(film.Len() - n + 1)
			add(&mdseq.Sequence{Points: clonePoints(film.Points[off : off+n])})
		}
	}
	for q := 0; q < 3; q++ {
		src := films[rng.Intn(len(films))]
		n := 60 + rng.Intn(60)
		off := rng.Intn(src.Len() - n + 1)
		queries = append(queries, &mdseq.Sequence{Points: src.Points[off : off+n]})
	}

	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	add(&mdseq.Sequence{Points: []mdseq.Point{{negZero, tiny, 0}}})
	queries = append(queries, &mdseq.Sequence{Points: []mdseq.Point{{tiny, 0, negZero}}})
	signed := make([]mdseq.Point, 24)
	for i := range signed {
		v := []float64{negZero, 0, tiny, -tiny}
		signed[i] = mdseq.Point{v[i%4], v[(i/4)%4], v[(i/2)%4]}
	}
	add(&mdseq.Sequence{Points: signed})
	queries = append(queries, &mdseq.Sequence{Points: clonePoints(signed[5:17])})
	return seqs, queries
}

// shots is a shot-structured sequence of n points: runs of 6–30 points, each
// a random still frame with coordinates jittered by up to 0.01.
func shots(rng *rand.Rand, n int) *mdseq.Sequence {
	pts := make([]mdseq.Point, 0, n)
	for len(pts) < n {
		c := mdseq.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		for k := 6 + rng.Intn(25); k > 0 && len(pts) < n; k-- {
			pts = append(pts, mdseq.Point{c[0] + rng.Float64()*0.01, c[1] + rng.Float64()*0.01, c[2] + rng.Float64()*0.01})
		}
	}
	return &mdseq.Sequence{Points: pts}
}

// clonePoints copies pts, points included.
func clonePoints(pts []mdseq.Point) []mdseq.Point {
	out := make([]mdseq.Point, len(pts))
	for i, p := range pts {
		out[i] = append(mdseq.Point(nil), p...)
	}
	return out
}

// fillAcrossFold stores seqs so that a transactional database is left with
// every kind of unfolded write: two thirds are loaded and folded, four of
// them short of their last five points; then come the rest, the four tails,
// and four removals on both sides of the fold (none of the plateau, the spike
// and the tie). It returns the live count.
func fillAcrossFold(t *testing.T, db shard.DB, fold func() error, seqs []*mdseq.Sequence) int {
	t.Helper()
	cut := 2 * len(seqs) / 3
	held := []int{2, 11, 22, 31} // long enough to lose five points
	tails := make([][]mdseq.Point, len(held))
	for i, at := range held {
		s := seqs[at]
		tails[i] = s.Points[s.Len()-5:]
		seqs[at] = &mdseq.Sequence{Label: s.Label, Points: s.Points[:s.Len()-5]}
	}
	ids, err := db.AddAll(seqs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if err := fold(); err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs[cut:] {
		id, err := db.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, at := range held {
		if err := db.AppendPoints(ids[at], tails[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, at := range []int{3, 22, cut + 1, len(seqs) - 4} {
		if err := db.Remove(ids[at]); err != nil {
			t.Fatal(err)
		}
	}
	return db.Len()
}
