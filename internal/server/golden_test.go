package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"regexp"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/txn"
)

// TestWireGolden is the byte-identity gate of the query path, as a test: a
// seeded request set — /search and /knn under D and DTW, /batch of 8,
// /explain, with ε and k at 0, at a tie and past the corpus size — replayed
// over HTTP against 1/8-scale Table 2 synthetic and video corpora on one
// database, 4 shards, a transactional database with unfolded adds, appends
// and removes, and 4 shards of those, each again with a cache on (where the
// set is sent twice, so the second pass is hits). Timing fields are masked
// and every (topology, endpoint) pair's answers — status, X-Mdseq-Cache and
// body, both corpora, in request order — are folded into one FNV-1a digest.
//
// The digests were recorded at bfa52d5, before the search-method matrix was
// collapsed into Do, and the test knows nothing of the database API beyond
// the writes that build a corpus: a change that keeps the wire keeps them.
// A moved digest means some client sees different bytes — do not re-record
// without saying which bytes and why. The set deliberately holds no query
// of the wrong dimension, no /explain that names a metric and no 10¹⁶
// spike: those are the inputs whose answers PR 22's bugfixes change.
//
// Digests were re-recorded twice since. "txn/batch" and "txn+cache/batch",
// once a transactional batch became Do per distinct query (core.DoBatch):
// the batch's two repeated members carry "cached":true, as they already did
// on every other topology, and its X-Mdseq-Cache reads "mixed" instead of
// "miss"; no other byte moved. Then every "search-d" and "batch" digest,
// once phase 3 began deciding a sequence shorter than the query by the
// weighted bound of its own MBRs (core's refineOne): of the paper's-answer
// replies, 156 of 1 140 answers moved — 276 matches dropped, every one a
// sequence shorter than the query at a scan distance above ε (the nearest
// at 1.5 ε), none added; 72 kept matches of such sequences report the new
// bound as minDnorm, with the same intervals; the 12 tie requests that read
// a moved minDnorm ask at another ε. Every scan match within ε is still in
// every answer. No byte of a sequence at least as long as the query moved.
func TestWireGolden(t *testing.T) {
	want := map[string]uint64{
		"core+cache/batch":            0xb48583029eec1717,
		"core+cache/explain":          0x5cd1dacda541913a,
		"core+cache/knn-d":            0xc248b4b0b25ead26,
		"core+cache/knn-dtw":          0xafc3653bc7c7bf1f,
		"core+cache/search-d":         0x3fd4b471cd86a9b,
		"core+cache/search-dtw":       0xa373b5ee18fa5fd4,
		"core/batch":                  0xf7b598a799c7fe2a,
		"core/explain":                0x5cd1dacda541913a,
		"core/knn-d":                  0x76e5806701a269f4,
		"core/knn-dtw":                0xb05ff8246788c3c6,
		"core/search-d":               0x114abaee5d52c9ab,
		"core/search-dtw":             0xf5a8a95f7756e954,
		"shard4+cache/batch":          0x17fa5188595387bd,
		"shard4+cache/explain":        0xab6e0ce1d7df0efb,
		"shard4+cache/knn-d":          0xcbf223796b1855f0,
		"shard4+cache/knn-dtw":        0xa47d5509b9febbd2,
		"shard4+cache/search-d":       0xf9723e2a321e7ae9,
		"shard4+cache/search-dtw":     0x7866b14f2defc98,
		"shard4-txn+cache/batch":      0x63f017c7c3bc2cda,
		"shard4-txn+cache/explain":    0xab6e0ce1d7df0efb,
		"shard4-txn+cache/knn-d":      0xcbf223796b1855f0,
		"shard4-txn+cache/knn-dtw":    0xa47d5509b9febbd2,
		"shard4-txn+cache/search-d":   0x48ed20fc6111903c,
		"shard4-txn+cache/search-dtw": 0x25e96a326a03b0de,
		"shard4-txn/batch":            0x6e5909901ad3af59,
		"shard4-txn/explain":          0xab6e0ce1d7df0efb,
		"shard4-txn/knn-d":            0xcad8c621ec03ec41,
		"shard4-txn/knn-dtw":          0x6e52be515411c6f0,
		"shard4-txn/search-d":         0xc3425b89f3df236b,
		"shard4-txn/search-dtw":       0x7dc423293ca53853,
		"shard4/batch":                0xbf19464229edaa2f,
		"shard4/explain":              0xab6e0ce1d7df0efb,
		"shard4/knn-d":                0xcad8c621ec03ec41,
		"shard4/knn-dtw":              0x6e52be515411c6f0,
		"shard4/search-d":             0x9b75a13a881d8eb2,
		"shard4/search-dtw":           0xb5c4f537d873f425,
		"txn+cache/batch":             0x707395ee509ae8d1,
		"txn+cache/explain":           0x5cd1dacda541913a,
		"txn+cache/knn-d":             0xc248b4b0b25ead26,
		"txn+cache/knn-dtw":           0xafc3653bc7c7bf1f,
		"txn+cache/search-d":          0xc61e586cbb43321e,
		"txn+cache/search-dtw":        0x4de07dacb8445a57,
		"txn/batch":                   0xcc0f08fe74dafaff,
		"txn/explain":                 0x5cd1dacda541913a,
		"txn/knn-d":                   0x76e5806701a269f4,
		"txn/knn-dtw":                 0xb05ff8246788c3c6,
		"txn/search-d":                0x7bcf1da31f3846c,
		"txn/search-dtw":              0x982efc2c837d061b,
	}
	type corpus struct {
		cfg  experiment.Config
		data []*core.Sequence
	}
	var corpora []corpus
	for _, cfg := range []experiment.Config{experiment.PaperSynthetic(), experiment.PaperVideo()} {
		cfg.NumSequences /= 8
		cfg.QueriesPerThreshold = 5
		data, err := experiment.GenerateData(cfg)
		if err != nil {
			t.Fatal(err)
		}
		corpora = append(corpora, corpus{cfg, data})
	}
	got := map[string]uint64{}
	for _, tp := range goldenTopologies {
		for _, cached := range []bool{false, true} {
			name := tp.name
			if cached {
				name += "+cache"
			}
			digests := map[string]*goldenDigest{}
			for _, c := range corpora {
				replayGolden(t, tp.open, c.cfg, cloneSequences(c.data), cached, digests)
			}
			for ep, d := range digests {
				got[name+"/"+ep] = d.h
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%q: %#x, recorded %#x", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d (topology, endpoint) digests, %d recorded", len(got), len(want))
	}
}

// goldenTopologies are the four ways mdsserve can hold a corpus. fold is
// called once, between the initial load and the later writes: it leaves a
// transactional node with an empty delta, so the later writes are what a
// query must merge.
var goldenTopologies = []struct {
	name string
	open func(t *testing.T) (db shard.DB, fold func() error)
}{
	{"core", func(t *testing.T) (shard.DB, func() error) {
		db, err := core.NewDatabase(core.Options{Dim: 3})
		if err != nil {
			t.Fatal(err)
		}
		return db, func() error { return nil }
	}},
	{"shard4", func(t *testing.T) (shard.DB, func() error) {
		db, err := shard.New(core.Options{Dim: 3}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return db, func() error { return nil }
	}},
	{"txn", func(t *testing.T) (shard.DB, func() error) {
		db := openGoldenTxn(t)
		return db, db.Checkpoint
	}},
	{"shard4-txn", func(t *testing.T) (shard.DB, func() error) {
		nodes := make([]shard.Node, 4)
		for i := range nodes {
			nodes[i] = openGoldenTxn(t)
		}
		db, err := shard.NewWithNodes(nodes)
		if err != nil {
			t.Fatal(err)
		}
		return db, func() error {
			for _, n := range nodes {
				if err := n.(*txn.DB).Checkpoint(); err != nil {
					return err
				}
			}
			return nil
		}
	}},
}

func openGoldenTxn(t *testing.T) *txn.DB {
	t.Helper()
	db, err := txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// goldenDigest folds answers into one FNV-1a value.
type goldenDigest struct{ h uint64 }

var goldenTimings = regexp.MustCompile(`"(phase1Us|phase2Us|phase3Us|cpuUs)":\d+`)

func (d *goldenDigest) add(path string, rec *httptest.ResponseRecorder) {
	h := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(d.h >> (8 * i))
	}
	h.Write(seed[:])
	fmt.Fprintf(h, "%s %d %s\n", path, rec.Code, rec.Header().Get("X-Mdseq-Cache"))
	h.Write(goldenTimings.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`)))
	d.h = h.Sum64()
}

// goldenRequest is one request of the set. A tie request has no body of its
// own: it repeats the request before it with ε set to the upper-quartile
// distance that one answered, which puts a stored sequence exactly on the
// threshold.
type goldenRequest struct {
	endpoint string // digest it is folded into
	path     string
	body     map[string]any
	tie      string // "minDnorm" or "dist": the answer field a tie request reads
}

// replayGolden stores data, cfg's corpus, in a database from open — which
// keeps the sequences — sends the request set (twice when cached) and folds
// every answer into digests.
func replayGolden(t *testing.T, open func(*testing.T) (shard.DB, func() error), cfg experiment.Config, data []*core.Sequence, cached bool, digests map[string]*goldenDigest) {
	t.Helper()
	db, fold := open(t)
	defer db.Close()
	queries := experiment.MakeQueries(cfg, data)
	rng := rand.New(rand.NewSource(cfg.Seed + 22))

	// The corpus: all but the last 16 sequences are loaded and folded, six
	// of them short of their last ten points. After the fold come the 16,
	// twins of two folded sequences (same points, another label: a tie at
	// every k and ε, across the fold), the six tails, and seven removals on
	// both sides of the fold.
	n := len(data)
	initial, later := data[:n-16], data[n-16:]
	tails := make([][]geom.Point, 6)
	for i := range tails {
		s := initial[7*i+3]
		tails[i] = s.Points[len(s.Points)-10:]
		s.Points = s.Points[:len(s.Points)-10]
	}
	twinOf := []*core.Sequence{initial[5], initial[40]}
	ids, err := db.AddAll(initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := fold(); err != nil {
		t.Fatal(err)
	}
	var laterIDs []uint32
	for _, s := range later {
		id, err := db.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		laterIDs = append(laterIDs, id)
	}
	for _, s := range twinOf {
		if _, err := db.Add(cloneSequence(s, s.Label+"-twin")); err != nil {
			t.Fatal(err)
		}
	}
	for i, tail := range tails {
		if err := db.AppendPoints(ids[7*i+3], tail); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{ids[1], ids[10], ids[24], ids[60], ids[99], laterIDs[2], laterIDs[11]} {
		if err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	live := db.Len()
	if cached {
		db.SetCache(cache.New(cache.Config{}))
	}
	srv := New(db)

	// DTW compares whole sequences, so its queries are stored sequences
	// with a few points dropped or doubled and every coordinate jittered;
	// the last is a twin's source, untouched: two sequences at distance 0.
	warped := func(src *core.Sequence) [][]float64 {
		pts := rawPoints(cloneSequence(src, "").Points)
		for e := rng.Intn(7); e > 0; e-- {
			i := rng.Intn(len(pts))
			if rng.Intn(2) == 0 {
				pts = append(pts[:i], pts[i+1:]...)
			} else {
				pts = append(pts[:i+1], pts[i:]...)
				pts[i+1] = append([]float64(nil), pts[i]...)
			}
		}
		for _, p := range pts {
			for d := range p {
				p[d] = min(1, max(0, p[d]+rng.NormFloat64()*0.004))
			}
		}
		return pts
	}
	dqs := make([][][]float64, 0, len(queries)+1)
	for _, q := range queries {
		dqs = append(dqs, rawPoints(q.Points))
	}
	dqs = append(dqs, rawPoints(twinOf[0].Points[10:70])) // cut from a twin: a tie at distance 0
	wqs := [][][]float64{warped(data[12]), warped(data[n-9]), warped(data[3]), rawPoints(twinOf[1].Points)}

	var set []goldenRequest
	for _, q := range dqs {
		for _, eps := range []float64{0, 0.05, 0.15} {
			set = append(set, goldenRequest{"search-d", "/search", map[string]any{"points": q, "eps": eps}, ""})
		}
		set = append(set, goldenRequest{endpoint: "search-d", path: "/search", tie: "minDnorm"})
		for _, k := range []int{0, 1, 10, live + 5} {
			set = append(set, goldenRequest{"knn-d", "/knn", map[string]any{"points": q, "k": k}, ""})
		}
	}
	for i, q := range wqs {
		w := []int{16, -1}[i%2]
		for _, eps := range []float64{0, 0.01, 0.04} {
			set = append(set, goldenRequest{"search-dtw", "/search", map[string]any{"points": q, "eps": eps, "metric": "dtw", "dtwWindow": w}, ""})
		}
		set = append(set, goldenRequest{endpoint: "search-dtw", path: "/search", tie: "dist"})
		ks := []int{0, 1, 5}
		if w >= 0 {
			ks = append(ks, live+5) // every sequence, under the band only: the open window is 50× the work
		}
		for _, k := range ks {
			set = append(set, goldenRequest{"knn-dtw", "/knn", map[string]any{"points": q, "k": k, "metric": "dtw", "dtwWindow": w}, ""})
		}
	}
	// Exact D through the metric path, which /search reaches by naming it.
	set = append(set, goldenRequest{"search-d", "/search", map[string]any{"points": dqs[1], "eps": 0.1, "metric": "d"}, ""},
		goldenRequest{endpoint: "search-d", path: "/search", tie: "dist"},
		goldenRequest{"knn-d", "/knn", map[string]any{"points": dqs[2], "k": 7, "metric": "d"}, ""})
	batch := [][][]float64{dqs[0], dqs[1], dqs[2], dqs[0], dqs[3], dqs[4], dqs[5], dqs[2]} // two repeats
	for _, eps := range []float64{0, 0.05, 0.15} {
		set = append(set, goldenRequest{"batch", "/batch", map[string]any{"queries": batch, "eps": eps}, ""})
	}

	send := func(r goldenRequest) *httptest.ResponseRecorder {
		raw, err := json.Marshal(r.body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", r.path, bytes.NewReader(raw)))
		d := digests[r.endpoint]
		if d == nil {
			d = &goldenDigest{}
			digests[r.endpoint] = d
		}
		d.add(r.path, rec)
		return rec
	}
	passes := 1
	if cached {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		var last goldenRequest
		var lastRec *httptest.ResponseRecorder
		for _, r := range set {
			if r.tie != "" {
				var resp struct {
					Matches []map[string]any `json:"matches"`
				}
				if err := json.Unmarshal(lastRec.Body.Bytes(), &resp); err != nil || len(resp.Matches) == 0 {
					t.Fatalf("%s tie after %v: no matches to tie with (%v): %s", r.endpoint, last.body["eps"], err, lastRec.Body)
				}
				dists := make([]float64, len(resp.Matches))
				for i, m := range resp.Matches {
					dists[i], _ = m[r.tie].(float64)
				}
				sort.Float64s(dists)
				r.body = map[string]any{}
				for k, v := range last.body {
					r.body[k] = v
				}
				r.body["eps"] = dists[len(dists)*3/4]
			}
			last, lastRec = r, send(r)
		}
	}
	// /explain last: on a transactional node it folds the delta first.
	for _, q := range dqs[:2] {
		send(goldenRequest{"explain", "/explain", map[string]any{"points": q, "eps": 0.1}, ""})
	}
}

func cloneSequence(s *core.Sequence, label string) *core.Sequence {
	pts := make([]geom.Point, len(s.Points))
	for i, p := range s.Points {
		pts[i] = p.Clone()
	}
	return &core.Sequence{Label: label, Points: pts}
}

func cloneSequences(data []*core.Sequence) []*core.Sequence {
	out := make([]*core.Sequence, len(data))
	for i, s := range data {
		out[i] = cloneSequence(s, s.Label)
	}
	return out
}

func rawPoints(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}
