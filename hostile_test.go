package mdseq_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	mdseq "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/seqio"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// TestNonFiniteRejectedEverywhere is the hostile-input table for NaN and
// ±Inf coordinates: every entry point that takes points — on a plain, a
// sharded and a transactional database, through the file readers, the
// facade's free functions and HTTP — refuses them with ErrNonFinite (400
// over HTTP) and leaves the database as it was. The distance kernels rely
// on it: the branch-free MBR gap subtracts bounds, and Inf − Inf is NaN.
func TestNonFiniteRejectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// poisoned returns a walk with v in the middle of it, where no check
	// that only looks at the first point finds it.
	poisoned := func(v float64) *mdseq.Sequence {
		s := walk(rng, 40)
		s.Points[17][1] = v
		return s
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	entry := []struct {
		name string
		call func(db shard.DB, bad *mdseq.Sequence) error
	}{
		{"Add", func(db shard.DB, bad *mdseq.Sequence) error { _, err := db.Add(bad); return err }},
		{"AddAll", func(db shard.DB, bad *mdseq.Sequence) error {
			_, err := db.AddAll([]*mdseq.Sequence{walk(rng, 30), bad})
			return err
		}},
		{"AppendPoints", func(db shard.DB, bad *mdseq.Sequence) error {
			return db.AppendPoints(db.Sequences()[0].ID, bad.Points)
		}},
	}
	for _, qe := range queryEntries {
		entry = append(entry, struct {
			name string
			call func(db shard.DB, bad *mdseq.Sequence) error
		}{qe.name, func(db shard.DB, bad *mdseq.Sequence) error {
			if _, isPlain := db.(*mdseq.DB); qe.plain && !isPlain {
				return mdseq.ErrNonFinite // not an entry point of this topology
			}
			_, err := qe.call(db, bad, 0.1, 3)
			return err
		}})
	}
	for _, tp := range []struct {
		name string
		open func() (shard.DB, error)
	}{
		{"core", func() (shard.DB, error) { return mdseq.Open(mdseq.Options{Dim: 3}) }},
		{"shard", func() (shard.DB, error) { return mdseq.OpenSharded(mdseq.Options{Dim: 3}, 3) }},
		{"txn", func() (shard.DB, error) { return txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true}) }},
	} {
		db, err := tp.open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 6; i++ {
			if _, err := db.Add(walk(rng, 50)); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range entry {
			for _, v := range nonFinite {
				if err := e.call(db, poisoned(v)); !errors.Is(err, mdseq.ErrNonFinite) {
					t.Errorf("%s %s with a %v coordinate: error %v, want ErrNonFinite", tp.name, e.name, v, err)
				}
			}
		}
		if first := db.Sequences()[0]; db.Len() != 6 || first.Len() != 50 {
			t.Errorf("%s: %d sequences, the first of %d points after the refused writes; want 6 and 50",
				tp.name, db.Len(), first.Len())
		}
		if _, err := db.Do(context.Background(), mdseq.Query{Seq: walk(rng, 30), Eps: 0.1}); err != nil {
			t.Errorf("%s: a clean query after the refused ones: %v", tp.name, err)
		}
	}

	// The facade's free functions.
	bad := poisoned(math.NaN())
	if _, err := mdseq.NewSequence("bad", bad.Points); !errors.Is(err, mdseq.ErrNonFinite) {
		t.Errorf("NewSequence: error %v, want ErrNonFinite", err)
	}
	if _, err := mdseq.Partition(bad, mdseq.DefaultPartitionConfig()); !errors.Is(err, mdseq.ErrNonFinite) {
		t.Errorf("Partition: error %v, want ErrNonFinite", err)
	}
	if _, err := mdseq.DTW(walk(rng, 40).Points, bad.Points, -1); !errors.Is(err, mdseq.ErrNonFinite) {
		t.Errorf("DTW: error %v, want ErrNonFinite", err)
	}

	// The file readers: Write refuses such a sequence, so a dataset is
	// written clean and one coordinate overwritten in place (magic 8, dim
	// 2, count 4, label length 2, empty label, point count 4: the first
	// coordinate is at byte 20).
	clean := walk(rng, 10)
	clean.Label = ""
	var buf bytes.Buffer
	if err := seqio.Write(&buf, []*mdseq.Sequence{clean}); err != nil {
		t.Fatal(err)
	}
	for _, v := range nonFinite {
		raw := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(raw[20+8*4:], math.Float64bits(v))
		if _, err := seqio.Read(bytes.NewReader(raw)); !errors.Is(err, mdseq.ErrNonFinite) || !errors.Is(err, seqio.ErrBadFormat) {
			t.Errorf("seqio.Read with a %v coordinate: error %v, want ErrBadFormat wrapping ErrNonFinite", v, err)
		}
		csv := fmt.Sprintf("a,0,0.1,0.2,0.3\na,1,0.1,%v,0.3\n", v)
		if _, err := seqio.ReadCSV(strings.NewReader(csv)); !errors.Is(err, mdseq.ErrNonFinite) {
			t.Errorf("seqio.ReadCSV with a %v coordinate: error %v, want ErrNonFinite", v, err)
		}
	}

	// HTTP: JSON has no spelling for them, and the scanner takes neither
	// the JavaScript names nor a literal that overflows.
	db, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	for _, lit := range []string{"NaN", "Infinity", "-Infinity", "1e999", "-1e999"} {
		for path, body := range map[string]string{
			"/sequences": `{"label":"x","points":[[0.1,0.2,0.3],[0.1,%s,0.3]]}`,
			"/search":    `{"points":[[0.1,0.2,0.3],[0.1,%s,0.3]],"eps":0.1}`,
			"/knn":       `{"points":[[0.1,0.2,0.3],[0.1,%s,0.3]],"k":2}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(fmt.Sprintf(body, lit)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with coordinate %s: status %d, want 400", path, lit, resp.StatusCode)
			}
		}
	}
	if db.Len() != 0 {
		t.Errorf("the server stored %d of the refused sequences", db.Len())
	}
}

// queryEntries is every way a query reaches a database: each Do kind under
// each metric, and every surviving method — the names shard.DB keeps for
// bench/, Explain, the batch, and on a plain database CandidatesDmbr, the
// context-free adapters and the scans (plain: those exist on *mdseq.DB
// only). call returns the number of results; eps says whether the entry
// point takes a threshold, knn whether it takes a k.
var queryEntries = func() []queryEntry {
	ctx := context.Background()
	d, dtw := core.MetricD{}, core.MetricDTW{Window: -1}
	do := func(kind mdseq.QueryKind, m core.Metric) func(shard.DB, *mdseq.Sequence, float64, int) (int, error) {
		return func(db shard.DB, q *mdseq.Sequence, eps float64, k int) (int, error) {
			res, err := db.Do(ctx, mdseq.Query{Seq: q, Kind: kind, Eps: eps, K: k, Metric: m})
			return len(res.Matches), err
		}
	}
	return []queryEntry{
		{"Do/range", true, false, false, do(mdseq.Range, nil)},
		{"Do/range/d", true, false, false, do(mdseq.Range, d)},
		{"Do/range/dtw", true, false, false, do(mdseq.Range, dtw)},
		{"Do/knn", false, true, false, do(mdseq.KNN, nil)},
		{"Do/knn/d", false, true, false, do(mdseq.KNN, d)},
		{"Do/knn/dtw", false, true, false, do(mdseq.KNN, dtw)},
		{"Do/scan", true, false, false, do(mdseq.Scan, nil)},
		{"Do/scan/d", true, false, false, do(mdseq.Scan, d)},
		{"Do/scan/dtw", true, false, false, do(mdseq.Scan, dtw)},
		{"SearchCtx", true, false, false, func(db shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			ms, _, err := db.SearchCtx(ctx, q, eps)
			return len(ms), err
		}},
		{"SearchMetricCtx", true, false, false, func(db shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			ms, _, err := db.SearchMetricCtx(ctx, q, eps, dtw)
			return len(ms), err
		}},
		{"SearchKNNCtx", false, true, false, func(db shard.DB, q *mdseq.Sequence, _ float64, k int) (int, error) {
			rs, err := db.SearchKNNCtx(ctx, q, k)
			return len(rs), err
		}},
		{"SearchKNNMetricCtx", false, true, false, func(db shard.DB, q *mdseq.Sequence, _ float64, k int) (int, error) {
			rs, err := db.SearchKNNMetricCtx(ctx, q, k, dtw)
			return len(rs), err
		}},
		{"SearchBatchCtx", true, false, false, func(db shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			outs, _, err := db.SearchBatchCtx(ctx, []*mdseq.Sequence{{Points: q.Points[:1]}, q}, eps)
			return len(outs), err
		}},
		{"Explain", true, false, false, func(db shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			ex, err := db.Explain(q, eps)
			if err != nil {
				return 0, err
			}
			return len(ex.Candidates), nil
		}},
		{"CandidatesDmbr", true, false, true, func(sdb shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			c, err := sdb.(*mdseq.DB).CandidatesDmbr(q, eps)
			return len(c), err
		}},
		{"Search", true, false, true, func(sdb shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			db := sdb.(*mdseq.DB)
			ms, _, err := db.Search(q, eps)
			return len(ms), err
		}},
		{"SearchMetric", true, false, true, func(sdb shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			db := sdb.(*mdseq.DB)
			ms, _, err := db.SearchMetric(q, eps, d)
			return len(ms), err
		}},
		{"SearchKNN", false, true, true, func(sdb shard.DB, q *mdseq.Sequence, _ float64, k int) (int, error) {
			db := sdb.(*mdseq.DB)
			rs, err := db.SearchKNN(q, k)
			return len(rs), err
		}},
		{"SearchKNNMetric", false, true, true, func(sdb shard.DB, q *mdseq.Sequence, _ float64, k int) (int, error) {
			db := sdb.(*mdseq.DB)
			rs, err := db.SearchKNNMetric(q, k, dtw)
			return len(rs), err
		}},
		{"SequentialSearch", true, false, true, func(sdb shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			db := sdb.(*mdseq.DB)
			rs, err := db.SequentialSearch(q, eps)
			return len(rs), err
		}},
		{"SequentialSearchMetric", true, false, true, func(sdb shard.DB, q *mdseq.Sequence, eps float64, _ int) (int, error) {
			db := sdb.(*mdseq.DB)
			rs, err := db.SequentialSearchMetric(q, eps, dtw)
			return len(rs), err
		}},
	}
}()

type queryEntry struct {
	name            string
	eps, knn, plain bool
	call            func(db shard.DB, q *mdseq.Sequence, eps float64, k int) (int, error)
}

// TestHostileQueriesRefusedEverywhere is the hostile-input table for the
// query itself: through every entry of queryEntries, on a plain, a sharded
// and a transactional database with a delta, a query of the wrong dimension
// is ErrDimensionMismatch, a negative threshold an error, k ≤ 0 the empty
// answer, and anything asked of a closed database an error — and over HTTP
// each of them is a 400, on /search, /knn, /batch and /explain alike. Every
// entry goes through one check (core.Query.Check) in one prologue; before
// that, Explain, CandidatesDmbr and SequentialSearch skipped it and
// panicked on a query of the wrong dimension, in a scatter goroutine on a
// sharded database, which ends the process.
func TestHostileQueriesRefusedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	// project returns a walk cut down or padded out to dim coordinates.
	project := func(dim int) *mdseq.Sequence {
		s := walk(rng, 30)
		for i, p := range s.Points {
			s.Points[i] = append(p, 0.5)[:dim]
		}
		return s
	}
	for _, tp := range []struct {
		name string
		open func() (shard.DB, error)
	}{
		{"core", func() (shard.DB, error) { return mdseq.Open(mdseq.Options{Dim: 3}) }},
		{"shard", func() (shard.DB, error) { return mdseq.OpenSharded(mdseq.Options{Dim: 3}, 3) }},
		{"txn", func() (shard.DB, error) { return txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true}) }},
	} {
		db, err := tp.open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 9; i++ {
			if tdb, ok := db.(*txn.DB); ok && i == 6 {
				if err := tdb.Checkpoint(); err != nil { // the last three stay in the delta
					t.Fatal(err)
				}
			}
			s := walk(rng, 50)
			s.Label = fmt.Sprintf("s%d", i) // a scatter places by label
			if _, err := db.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		good := walk(rng, 30)
		tdb, _ := db.(*txn.DB)
		for _, e := range queryEntries {
			if e.plain && tp.name != "core" {
				continue
			}
			if tdb != nil && tdb.Stats().DeltaAdds == 0 { // a clean Explain folded it
				if _, err := tdb.Add(walk(rng, 50)); err != nil {
					t.Fatal(err)
				}
			}
			for _, dim := range []int{2, 4} {
				if _, err := e.call(db, project(dim), 0.1, 3); !errors.Is(err, geom.ErrDimensionMismatch) {
					t.Errorf("%s %s with a query of dimension %d: error %v, want ErrDimensionMismatch", tp.name, e.name, dim, err)
				}
			}
			if e.eps {
				if _, err := e.call(db, good, -0.1, 3); err == nil {
					t.Errorf("%s %s with eps -0.1: no error", tp.name, e.name)
				}
			}
			if e.knn {
				for _, k := range []int{0, -1} {
					if n, err := e.call(db, good, 0.1, k); n != 0 || err != nil {
						t.Errorf("%s %s with k %d: %d neighbors, error %v; want the empty answer", tp.name, e.name, k, n, err)
					}
				}
			}
			if tdb != nil && tdb.Stats().DeltaAdds == 0 {
				t.Errorf("txn %s: a refused query folded the delta", e.name)
			}
			if _, err := e.call(db, good, 0.1, 3); err != nil {
				t.Errorf("%s %s: a clean query after the refused ones: %v", tp.name, e.name, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		for _, e := range queryEntries {
			if e.plain && tp.name != "core" {
				continue
			}
			if _, err := e.call(db, good, 0.1, 3); err == nil {
				t.Errorf("%s %s on a closed database: no error", tp.name, e.name)
			}
		}
	}

	// HTTP: every refusal is a 400, and none takes the server down.
	db, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 6; i++ {
		s := walk(rng, 50)
		s.Label = fmt.Sprintf("s%d", i)
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %s: %v (a handler panic reads as EOF)", path, body, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	points := map[int]string{2: `[[0.1,0.2],[0.2,0.3]]`, 3: `[[0.1,0.2,0.3],[0.2,0.3,0.4]]`, 4: `[[0.1,0.2,0.3,0.4],[0.2,0.3,0.4,0.5]]`}
	for _, c := range []struct {
		path, body string
		status     int
	}{
		{"/search", `{"points":%s,"eps":0.1}`, 200},
		{"/search", `{"points":%s,"eps":0.1,"metric":"dtw"}`, 200},
		{"/knn", `{"points":%s,"k":2}`, 200},
		{"/knn", `{"points":%s,"k":2,"metric":"dtw"}`, 200},
		{"/batch", `{"queries":[%s],"eps":0.1}`, 200},
		{"/explain", `{"points":%s,"eps":0.1}`, 200},
	} {
		for dim, pts := range points {
			want := c.status
			if dim != 3 {
				want = http.StatusBadRequest
			}
			if status, body := post(c.path, fmt.Sprintf(c.body, pts)); status != want {
				t.Errorf("POST %s with %d-dimensional points: status %d, want %d: %s", c.path, dim, status, want, body)
			}
		}
	}
	for path, body := range map[string]string{
		"/search":  `{"points":%s,"eps":-0.1}`,
		"/batch":   `{"queries":[%s],"eps":-0.1}`,
		"/explain": `{"points":%s,"eps":-0.1}`,
	} {
		if status, body := post(path, fmt.Sprintf(body, points[3])); status != http.StatusBadRequest {
			t.Errorf("POST %s with eps -0.1: status %d, want 400: %s", path, status, body)
		}
	}
	for _, k := range []int{0, -1} {
		if status, body := post("/knn", fmt.Sprintf(`{"points":%s,"k":%d}`, points[3], k)); status != 200 || strings.TrimSpace(body) != `{"neighbors":[]}` {
			t.Errorf("POST /knn with k %d: status %d, body %s; want 200 and no neighbors", k, status, body)
		}
	}
	// Explain covers the D pipeline: naming another metric is refused, not
	// answered with the account of a different search.
	for metric, want := range map[string]int{"d": 200, "D": 200, "dtw": 400, "chebyshev": 400} {
		if status, body := post("/explain", fmt.Sprintf(`{"points":%s,"eps":0.1,"metric":%q}`, points[3], metric)); status != want {
			t.Errorf("POST /explain naming metric %q: status %d, want %d: %s", metric, status, want, body)
		}
	}
	db.Close()
	for path, body := range map[string]string{
		"/search":  `{"points":%s,"eps":0.1}`,
		"/knn":     `{"points":%s,"k":2}`,
		"/batch":   `{"queries":[%s],"eps":0.1}`,
		"/explain": `{"points":%s,"eps":0.1}`,
	} {
		if status, body := post(path, fmt.Sprintf(body, points[3])); status != http.StatusBadRequest {
			t.Errorf("POST %s on a closed database: status %d, want 400: %s", path, status, body)
		}
	}
}

// TestHugeKReturnsEverySequence is the hostile-input table for k: a
// request may say any int, and on every topology — with a transactional
// node's delta non-empty, where a list sized by k was an out-of-memory
// crash at 2⁴⁰ and k plus the delta's size wrapped negative at MaxInt — a k
// past the number of sequences returns them all, ranked, under D and DTW,
// from the library and over HTTP on a durable server.
func TestHugeKReturnsEverySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	// fill stores 12 sequences, folds them where there is something to fold
	// into, and leaves 6 more and two tombstones behind.
	fill := func(db shard.DB, fold func() error) {
		t.Helper()
		var ids []uint32
		for i := 0; i < 18; i++ {
			if i == 12 {
				if err := fold(); err != nil {
					t.Fatal(err)
				}
			}
			s := walk(rng, 40+rng.Intn(20))
			s.Label = fmt.Sprintf("s%02d", i) // a scatter places by label
			id, err := db.Add(s)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range []uint32{ids[1], ids[17]} {
			if err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	durable := func() (*txn.DB, error) { return txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true}) }
	const live = 16
	ks := []int{live + 5, 1 << 40, math.MaxInt}
	q := walk(rng, 30)
	for _, tp := range []struct {
		name string
		open func() (shard.DB, func() error, error)
	}{
		{"core", func() (shard.DB, func() error, error) {
			db, err := mdseq.Open(mdseq.Options{Dim: 3})
			return db, func() error { return nil }, err
		}},
		{"shard", func() (shard.DB, func() error, error) {
			db, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, 3)
			return db, func() error { return nil }, err
		}},
		{"txn", func() (shard.DB, func() error, error) {
			db, err := durable()
			if err != nil {
				return nil, nil, err
			}
			return db, db.Checkpoint, nil
		}},
	} {
		db, fold, err := tp.open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fill(db, fold)
		for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
			all, err := db.SearchKNNMetricCtx(context.Background(), q, live, m)
			if err != nil || len(all) != live {
				t.Fatalf("%s %s: %d neighbors at k = %d, err %v", tp.name, m.Name(), len(all), live, err)
			}
			for _, k := range ks {
				got, err := db.SearchKNNMetricCtx(context.Background(), q, k, m)
				if err != nil {
					t.Fatalf("%s %s k %d: %v", tp.name, m.Name(), k, err)
				}
				if len(got) != live {
					t.Fatalf("%s %s k %d: %d neighbors, %d sequences are live", tp.name, m.Name(), k, len(got), live)
				}
				for i := range got {
					if got[i].SeqID != all[i].SeqID || got[i].Dist != all[i].Dist || (i > 0 && got[i].Dist < got[i-1].Dist) {
						t.Fatalf("%s %s k %d neighbor %d: {seq %d dist %v}, at k = %d it is {seq %d dist %v}",
							tp.name, m.Name(), k, i, got[i].SeqID, got[i].Dist, live, all[i].SeqID, all[i].Dist)
					}
				}
			}
		}
	}

	// HTTP, on what mdsserve -durable serves: a scatter over transactional
	// nodes, every node with a delta.
	nodes := make([]shard.Node, 2)
	for i := range nodes {
		node, err := durable()
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	sdb, err := shard.NewWithNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	fill(sdb, func() error {
		for _, n := range nodes {
			if err := n.(*txn.DB).Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	})
	for _, n := range nodes {
		if st := n.(*txn.DB).Stats(); st.DeltaAdds == 0 {
			t.Fatalf("a node's delta is empty: %+v", st)
		}
	}
	ts := httptest.NewServer(server.New(sdb))
	defer ts.Close()
	var points strings.Builder
	for i, p := range q.Points {
		if i > 0 {
			points.WriteByte(',')
		}
		fmt.Fprintf(&points, "[%v,%v,%v]", p[0], p[1], p[2])
	}
	for _, metric := range []string{"d", "dtw"} {
		for _, k := range ks {
			body := fmt.Sprintf(`{"points":[%s],"k":%d,"metric":%q,"dtwWindow":-1}`, points.String(), k, metric)
			resp, err := http.Post(ts.URL+"/knn", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var answer struct {
				Neighbors []server.NeighborJSON `json:"neighbors"`
			}
			err = json.NewDecoder(resp.Body).Decode(&answer)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil || len(answer.Neighbors) != live {
				t.Fatalf("POST /knn metric %s k %d: status %d, %d neighbors (decode error %v), want 200 and %d",
					metric, k, resp.StatusCode, len(answer.Neighbors), err, live)
			}
			for i := 1; i < live; i++ {
				if answer.Neighbors[i].Dist < answer.Neighbors[i-1].Dist {
					t.Fatalf("POST /knn metric %s k %d: neighbor %d at %v after one at %v",
						metric, k, i, answer.Neighbors[i].Dist, answer.Neighbors[i-1].Dist)
				}
			}
		}
	}
}

// TestLongLabelsRoundTripOrRefused is the hostile-input row for labels at
// and past the 16-bit length the WAL stores: a 65 535-byte label comes
// back byte-exact from Segmented, Sequences and a range answer on a plain,
// a 4-shard and a durable transactional database, from Save/LoadWith and
// SaveSharded/LoadShardedWith, and from a txn reopen that replays the WAL
// and one that loads a checkpointed snapshot. A 65 536-byte label either
// round-trips the same way or is refused before it is acknowledged; no
// layer truncates it.
func TestLongLabelsRoundTripOrRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()
	for _, size := range []int{1<<16 - 1, 1 << 16} {
		raw := make([]byte, size)
		rng.Read(raw)
		label := string(raw)
		long := walk(rng, 40)
		long.Label = label
		points := long.Points

		// holds checks that db stores the sequence byte-exact, once, under
		// every read.
		holds := func(where string, db shard.DB) {
			t.Helper()
			found := 0
			for _, s := range db.Sequences() {
				if s.Label == label {
					found++
					if g := db.Segmented(s.ID); g == nil || g.Seq.Label != label {
						t.Errorf("%d-byte label, %s: Segmented(%d) does not carry it", size, where, s.ID)
					}
				} else if len(s.Label) >= 1<<15 {
					t.Errorf("%d-byte label, %s: stored as %d bytes", size, where, len(s.Label))
				}
			}
			if found != 1 {
				t.Errorf("%d-byte label, %s: Sequences holds it %d times, want 1", size, where, found)
			}
			res, err := db.Do(ctx, mdseq.Query{Seq: &mdseq.Sequence{Points: points}, Kind: mdseq.Range, Eps: 0.01})
			if err != nil {
				t.Fatalf("%d-byte label, %s: %v", size, where, err)
			}
			found = 0
			for _, m := range res.Matches {
				if m.Seq.Label == label {
					found++
				}
			}
			if found != 1 {
				t.Errorf("%d-byte label, %s: the range answer holds it %d times, want 1", size, where, found)
			}
		}
		fill := func(db shard.DB) {
			t.Helper()
			for i := 0; i < 5; i++ {
				if _, err := db.Add(walk(rng, 30)); err != nil {
					t.Fatal(err)
				}
			}
		}
		seq := func() *mdseq.Sequence { return &mdseq.Sequence{Label: label, Points: points} }

		plain, err := mdseq.Open(mdseq.Options{Dim: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		fill(plain)
		if _, err := plain.Add(seq()); err != nil {
			t.Fatalf("%d-byte label: core Add: %v", size, err)
		}
		holds("core", plain)
		dir := filepath.Join(t.TempDir(), "db")
		if err := mdseq.Save(plain, dir); err != nil {
			t.Fatal(err)
		}
		loaded, err := store.LoadWith(dir, store.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		holds("Save/LoadWith", loaded)
		loaded.Close()

		sharded, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer sharded.Close()
		fill(sharded)
		if _, err := sharded.Add(seq()); err != nil {
			t.Fatalf("%d-byte label: 4-shard Add: %v", size, err)
		}
		holds("4 shards", sharded)
		sdir := filepath.Join(t.TempDir(), "sharded")
		if err := mdseq.SaveSharded(sharded, sdir); err != nil {
			t.Fatal(err)
		}
		sloaded, err := store.LoadShardedWith(sdir, store.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		holds("SaveSharded/LoadShardedWith", sloaded)
		sloaded.Close()

		tdir := t.TempDir()
		tdb, err := txn.Open(txn.Options{Dim: 3, Dir: tdir, NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		fill(tdb)
		_, addErr := tdb.Add(seq())
		if addErr != nil {
			// Refused: nothing of it may have been acknowledged or logged.
			if tdb.Len() != 5 {
				t.Errorf("%d-byte label: txn refused the add (%v) but holds %d sequences", size, addErr, tdb.Len())
			}
		} else {
			holds("txn", tdb)
		}
		for _, step := range []string{"WAL replay", "snapshot load"} {
			if step == "snapshot load" {
				if err := tdb.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := tdb.Close(); err != nil {
				t.Fatal(err)
			}
			if tdb, err = txn.Open(txn.Options{Dim: 3, Dir: tdir, NoFsync: true}); err != nil {
				t.Fatalf("%d-byte label: txn reopen (%s): %v", size, step, err)
			}
			if addErr == nil {
				holds("txn reopen, "+step, tdb)
			} else if tdb.Len() != 5 {
				t.Errorf("%d-byte label: txn reopen (%s) holds %d sequences, want the 5 acknowledged", size, step, tdb.Len())
			}
		}
		tdb.Close()
		if size == 1<<16-1 && addErr != nil {
			t.Errorf("65 535-byte label refused by txn: %v", addErr)
		}
	}
}
