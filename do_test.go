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
// stored.
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
	metrics := []core.Metric{nil, core.MetricD{}, core.MetricDTW{Window: -1}}
	name := func(m core.Metric) string {
		if m == nil {
			return "paper"
		}
		return m.Name()
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
			n := fillAcrossFold(t, db, fold, seqs)
			if cached {
				db.SetCache(mdseq.NewQueryCache(mdseq.QueryCacheConfig{}))
			}
			if queries == nil {
				queries = doQueries(rng, seqs)
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
					for _, eps := range []float64{0, 0.1, 0.3} {
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
	return seqs
}

// doQueries is core's walkQueries: one point, fresh walks longer and shorter
// than most of what is stored, and windows of stored sequences (distance 0
// to their source and its twin).
func doQueries(rng *rand.Rand, seqs []*mdseq.Sequence) []*mdseq.Sequence {
	qs := []*mdseq.Sequence{walk(rng, 1), walk(rng, 150), walk(rng, 35)}
	for len(qs) < 9 {
		src := seqs[rng.Intn(len(seqs))]
		n := 1 + rng.Intn(src.Len())
		off := rng.Intn(src.Len() - n + 1)
		qs = append(qs, &mdseq.Sequence{Points: src.Points[off : off+n]})
	}
	return qs
}

// fillAcrossFold stores seqs so that a transactional database is left with
// every kind of unfolded write: two thirds are loaded and folded, four of
// them short of their last five points; then come the rest, the four tails,
// and four removals on both sides of the fold. It returns the live count.
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
	for _, at := range []int{3, 22, cut + 1, len(seqs) - 3} {
		if err := db.Remove(ids[at]); err != nil {
			t.Fatal(err)
		}
	}
	return db.Len()
}
