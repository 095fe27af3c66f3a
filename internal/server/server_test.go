package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/txn"
)

func newTestServer(t *testing.T) (*Server, *core.Database) {
	t.Helper()
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return New(db), db
}

func newShardedTestServer(t *testing.T, shards int) (*Server, *shard.ShardedDB) {
	t.Helper()
	db, err := shard.New(core.Options{Dim: 3}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return New(db), db
}

func doJSON(t *testing.T, s *Server, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func walkPoints(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	cur := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	for i := range pts {
		next := make([]float64, 3)
		for k := range next {
			v := cur[k] + (rng.Float64()-0.5)*0.06
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			next[k] = v
		}
		pts[i], cur = next, next
	}
	return pts
}

func TestAddGetDelete(t *testing.T) {
	s, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(1))

	rec := doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: "a", Points: walkPoints(rng, 40)})
	if rec.Code != http.StatusCreated {
		t.Fatalf("add: %d %s", rec.Code, rec.Body)
	}
	var created struct {
		ID uint32 `json:"id"`
	}
	json.Unmarshal(rec.Body.Bytes(), &created)

	rec = doJSON(t, s, "GET", fmt.Sprintf("/sequences/%d", created.ID), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	var got SequenceJSON
	json.Unmarshal(rec.Body.Bytes(), &got)
	if got.Label != "a" || len(got.Points) != 40 {
		t.Errorf("got %q with %d points", got.Label, len(got.Points))
	}

	rec = doJSON(t, s, "DELETE", fmt.Sprintf("/sequences/%d", created.ID), nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	rec = doJSON(t, s, "GET", fmt.Sprintf("/sequences/%d", created.ID), nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("get after delete: %d", rec.Code)
	}
	rec = doJSON(t, s, "DELETE", fmt.Sprintf("/sequences/%d", created.ID), nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("double delete: %d", rec.Code)
	}
}

func TestBatchSearchAndKNN(t *testing.T) {
	s, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(2))
	batch := struct {
		Sequences []SequenceJSON `json:"sequences"`
	}{}
	var stored [][][]float64
	for i := 0; i < 15; i++ {
		pts := walkPoints(rng, 60)
		stored = append(stored, pts)
		batch.Sequences = append(batch.Sequences, SequenceJSON{Label: fmt.Sprintf("s%d", i), Points: pts})
	}
	rec := doJSON(t, s, "POST", "/sequences/batch", batch)
	if rec.Code != http.StatusCreated {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	var ids struct {
		IDs []uint32 `json:"ids"`
	}
	json.Unmarshal(rec.Body.Bytes(), &ids)
	if len(ids.IDs) != 15 {
		t.Fatalf("ids = %v", ids.IDs)
	}

	// Search with a stored subsequence; source must match.
	query := stored[4][10:40]
	rec = doJSON(t, s, "POST", "/search", SearchRequest{Points: query, Eps: 0.05})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	found := false
	for _, m := range resp.Matches {
		if m.ID == 4 {
			found = true
			if len(m.Intervals) == 0 {
				t.Error("match without intervals")
			}
		}
	}
	if !found {
		t.Errorf("source not found in %+v", resp.Matches)
	}
	if resp.Stats.TotalSequences != 15 {
		t.Errorf("stats: %+v", resp.Stats)
	}

	// k-NN.
	rec = doJSON(t, s, "POST", "/knn", KNNRequest{Points: query, K: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("knn: %d %s", rec.Code, rec.Body)
	}
	var knn struct {
		Neighbors []NeighborJSON `json:"neighbors"`
	}
	json.Unmarshal(rec.Body.Bytes(), &knn)
	if len(knn.Neighbors) != 3 || knn.Neighbors[0].ID != 4 || knn.Neighbors[0].Dist != 0 {
		t.Errorf("knn = %+v", knn.Neighbors)
	}
}

func TestAppendEndpoint(t *testing.T) {
	s, db := newTestServer(t)
	rng := rand.New(rand.NewSource(3))
	rec := doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: "grow", Points: walkPoints(rng, 30)})
	if rec.Code != http.StatusCreated {
		t.Fatal(rec.Code)
	}
	rec = doJSON(t, s, "POST", "/sequences/0/append", map[string]interface{}{"points": walkPoints(rng, 20)})
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Length int `json:"length"`
	}
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Length != 50 {
		t.Errorf("length = %d", resp.Length)
	}
	if db.Segmented(0).Seq.Len() != 50 {
		t.Error("append not applied")
	}
	rec = doJSON(t, s, "POST", "/sequences/99/append", map[string]interface{}{"points": walkPoints(rng, 5)})
	if rec.Code != http.StatusNotFound {
		t.Errorf("append to unknown: %d", rec.Code)
	}
}

// goneAfterAppend is a database on which every sequence vanishes once it
// has been appended to: a DELETE committed between the append and the
// handler's read of the new length.
type goneAfterAppend struct {
	shard.DB
	appended bool
}

func (g *goneAfterAppend) AppendPoints(id uint32, pts []geom.Point) error {
	if err := g.DB.AppendPoints(id, pts); err != nil {
		return err
	}
	g.appended = true
	return nil
}

func (g *goneAfterAppend) Segmented(id uint32) *core.Segmented {
	if g.appended {
		return nil
	}
	return g.DB.Segmented(id)
}

// TestAppendToSequenceRemovedMeanwhile: the append handler read the new
// length through Segmented after the write and dereferenced nil when the
// sequence had been removed in between, dropping the connection. It
// answers 404, as GET does for a missing id.
func TestAppendToSequenceRemovedMeanwhile(t *testing.T) {
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(3))
	if _, err := db.Add(&core.Sequence{Label: "grow", Points: toPoints(walkPoints(rng, 30))}); err != nil {
		t.Fatal(err)
	}
	s := New(&goneAfterAppend{DB: db})
	rec := doJSON(t, s, "POST", "/sequences/0/append", map[string]interface{}{"points": walkPoints(rng, 5)})
	if rec.Code != http.StatusNotFound || !bytes.Contains(rec.Body.Bytes(), []byte("sequence 0 not found")) {
		t.Fatalf("append to a sequence removed meanwhile: %d %s, want 404", rec.Code, rec.Body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: fmt.Sprintf("s%d", i), Points: walkPoints(rng, 40)})
	}
	rec := doJSON(t, s, "POST", "/explain", SearchRequest{Points: walkPoints(rng, 20), Eps: 0.3})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", rec.Code, rec.Body)
	}
	var resp ExplainResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.PrunedDmbr+resp.PrunedDnorm+resp.Matched != 6 {
		t.Errorf("counts: %+v", resp)
	}
	if len(resp.Sequences) != 6 {
		t.Errorf("sequences: %d", len(resp.Sequences))
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(5))
	doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: "x", Points: walkPoints(rng, 50)})
	rec := doJSON(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	var stats map[string]int
	json.Unmarshal(rec.Body.Bytes(), &stats)
	if stats["sequences"] != 1 || stats["mbrs"] < 1 {
		t.Errorf("stats = %v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		method, path string
		body         string
		wantStatus   int
	}{
		{"POST", "/sequences", `{`, http.StatusBadRequest},
		{"POST", "/sequences", `{"label":"x","points":[]}`, http.StatusBadRequest},
		{"POST", "/sequences", `{"label":"x","points":[[0.1]],"bogus":1}`, http.StatusBadRequest},
		{"POST", "/search", `{"points":[[0.1,0.2,0.3]],"eps":-1}`, http.StatusBadRequest},
		// "parallel" left the schema with the search it selected: an unknown key.
		{"POST", "/search", `{"points":[[0.1,0.2,0.3]],"eps":0.1,"parallel":true}`, http.StatusBadRequest},
		{"GET", "/sequences/notanumber", ``, http.StatusBadRequest},
		{"POST", "/knn", `{"points":[],"k":3}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, bytes.NewBufferString(c.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != c.wantStatus {
			t.Errorf("%s %s: %d, want %d (%s)", c.method, c.path, rec.Code, c.wantStatus, rec.Body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	rec := doJSON(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h struct {
		Status    string `json:"status"`
		Shards    int    `json:"shards"`
		Sequences int    `json:"sequences"`
	}
	json.Unmarshal(rec.Body.Bytes(), &h)
	if h.Status != "ok" || h.Shards != 1 || h.Sequences != 0 {
		t.Errorf("healthz = %+v", h)
	}

	ss, _ := newShardedTestServer(t, 4)
	rng := rand.New(rand.NewSource(9))
	doJSON(t, ss, "POST", "/sequences", SequenceJSON{Label: "a", Points: walkPoints(rng, 30)})
	rec = doJSON(t, ss, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded healthz: %d", rec.Code)
	}
	json.Unmarshal(rec.Body.Bytes(), &h)
	if h.Status != "ok" || h.Shards != 4 || h.Sequences != 1 {
		t.Errorf("sharded healthz = %+v", h)
	}
}

// TestOversizedBody checks every POST handler rejects bodies beyond the
// MaxBytesReader cap with 413 rather than reading them whole. The body is
// legal-JSON leading whitespace so only the size, not the syntax, trips.
func TestOversizedBody(t *testing.T) {
	s, _ := newTestServer(t)
	huge := bytes.Repeat([]byte(" "), maxBodyBytes+16)
	for _, path := range []string{"/sequences", "/sequences/batch", "/sequences/0/append", "/search", "/batch", "/knn", "/explain"} {
		req := httptest.NewRequest("POST", path, bytes.NewReader(huge))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: %d, want %d", path, rec.Code, http.StatusRequestEntityTooLarge)
		}
	}
}

// TestShardedServerEquivalence drives identical traffic at a single-node
// and a sharded server and compares the search answers by label.
func TestShardedServerEquivalence(t *testing.T) {
	single, _ := newTestServer(t)
	sharded, _ := newShardedTestServer(t, 3)
	rng := rand.New(rand.NewSource(10))
	batch := struct {
		Sequences []SequenceJSON `json:"sequences"`
	}{}
	var stored [][][]float64
	for i := 0; i < 12; i++ {
		pts := walkPoints(rng, 50)
		stored = append(stored, pts)
		batch.Sequences = append(batch.Sequences, SequenceJSON{Label: fmt.Sprintf("s%d", i), Points: pts})
	}
	for _, s := range []*Server{single, sharded} {
		if rec := doJSON(t, s, "POST", "/sequences/batch", batch); rec.Code != http.StatusCreated {
			t.Fatalf("batch: %d %s", rec.Code, rec.Body)
		}
	}
	query := SearchRequest{Points: stored[7][5:35], Eps: 0.08}
	labels := func(s *Server) map[string]bool {
		rec := doJSON(t, s, "POST", "/search", query)
		if rec.Code != http.StatusOK {
			t.Fatalf("search: %d %s", rec.Code, rec.Body)
		}
		var resp SearchResponse
		json.Unmarshal(rec.Body.Bytes(), &resp)
		out := make(map[string]bool)
		for _, m := range resp.Matches {
			out[m.Label] = true
		}
		return out
	}
	got, want := labels(sharded), labels(single)
	if len(got) == 0 || len(want) == 0 {
		t.Fatal("query matched nothing; test is vacuous")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sharded server matches %v, single-node %v", got, want)
	}
}

// TestBatchEndpoint checks POST /batch returns, per query and in input
// order, exactly what POST /search returns — on a single node and on a
// sharded database.
func TestBatchEndpoint(t *testing.T) {
	for _, shards := range []int{1, 3} {
		var s *Server
		if shards == 1 {
			s, _ = newTestServer(t)
		} else {
			s, _ = newShardedTestServer(t, shards)
		}
		rng := rand.New(rand.NewSource(11))
		var stored [][][]float64
		for i := 0; i < 12; i++ {
			pts := walkPoints(rng, 50)
			stored = append(stored, pts)
			doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: fmt.Sprintf("s%d", i), Points: pts})
		}
		queries := [][][]float64{stored[2][5:35], stored[9][10:40], stored[2][5:35]} // one duplicate
		rec := doJSON(t, s, "POST", "/batch", BatchSearchRequest{Queries: queries, Eps: 0.08})
		if rec.Code != http.StatusOK {
			t.Fatalf("shards=%d batch: %d %s", shards, rec.Code, rec.Body)
		}
		var batch BatchSearchResponse
		json.Unmarshal(rec.Body.Bytes(), &batch)
		if len(batch.Results) != len(queries) {
			t.Fatalf("shards=%d: %d results for %d queries", shards, len(batch.Results), len(queries))
		}
		for i, q := range queries {
			rec := doJSON(t, s, "POST", "/search", SearchRequest{Points: q, Eps: 0.08})
			var solo SearchResponse
			json.Unmarshal(rec.Body.Bytes(), &solo)
			if len(solo.Matches) == 0 {
				t.Fatalf("shards=%d query %d matched nothing; test is vacuous", shards, i)
			}
			got, want := fmt.Sprint(batch.Results[i].Matches), fmt.Sprint(solo.Matches)
			if got != want {
				t.Errorf("shards=%d query %d: batch %s, solo %s", shards, i, got, want)
			}
		}
	}
}

func TestBatchEndpointBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	rec := doJSON(t, s, "POST", "/batch", BatchSearchRequest{Eps: 0.1})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", rec.Code)
	}
	bad := BatchSearchRequest{Queries: [][][]float64{{{0.1, 0.2, 0.3}}, {}}, Eps: 0.1}
	rec = doJSON(t, s, "POST", "/batch", bad)
	if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("query 1")) {
		t.Errorf("bad member: %d %s, want 400 naming query 1", rec.Code, rec.Body)
	}
}

// TestCacheHeaderAndInvalidation drives a cache-enabled server through
// the cache story at the HTTP layer: a repeated query is a hit (header +
// "cached" field); under the default MBR-scoped invalidation a write far
// from the query's region leaves the hit standing, while a write inside
// it makes the next search a miss — no pre-write result is ever served
// stale.
func TestCacheHeaderAndInvalidation(t *testing.T) {
	s, db := newTestServer(t)
	db.SetCache(cache.New(cache.Config{}))
	rng := rand.New(rand.NewSource(12))
	var stored [][][]float64
	for i := 0; i < 8; i++ {
		pts := walkPoints(rng, 50)
		stored = append(stored, pts)
		doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: fmt.Sprintf("s%d", i), Points: pts})
	}
	query := SearchRequest{Points: stored[3][5:35], Eps: 0.08}

	search := func() (SearchResponse, string) {
		rec := doJSON(t, s, "POST", "/search", query)
		if rec.Code != http.StatusOK {
			t.Fatalf("search: %d %s", rec.Code, rec.Body)
		}
		var resp SearchResponse
		json.Unmarshal(rec.Body.Bytes(), &resp)
		return resp, rec.Header().Get("X-Mdseq-Cache")
	}
	first, hdr := search()
	if first.Cached || hdr != "miss" {
		t.Errorf("first search: cached=%v header=%q, want fresh miss", first.Cached, hdr)
	}
	if len(first.Matches) == 0 {
		t.Fatal("query matched nothing; test is vacuous")
	}
	second, hdr := search()
	if !second.Cached || hdr != "hit" {
		t.Errorf("repeat search: cached=%v header=%q, want hit", second.Cached, hdr)
	}
	if fmt.Sprint(second.Matches) != fmt.Sprint(first.Matches) {
		t.Errorf("cached matches differ: %+v vs %+v", second.Matches, first.Matches)
	}

	// A write provably outside the query's region (all stored points live
	// in [0,1]³; this one is around 100) cannot change the answer, so the
	// MBR-scoped cache keeps serving the hit.
	far := make([][]float64, 10)
	for i := range far {
		far[i] = []float64{100 + float64(i)*0.01, 100, 100}
	}
	doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: "far", Points: far})
	kept, hdr := search()
	if !kept.Cached || hdr != "hit" {
		t.Errorf("post-far-write search: cached=%v header=%q, want hit", kept.Cached, hdr)
	}

	// A write inside the query's region invalidates: the next search
	// recomputes and sees the full ten-sequence corpus.
	doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: "near", Points: stored[3][5:35]})
	third, hdr := search()
	if third.Cached || hdr != "miss" {
		t.Errorf("post-write search: cached=%v header=%q, want miss", third.Cached, hdr)
	}
	if third.Stats.TotalSequences != 10 {
		t.Errorf("post-write search saw %d sequences, want 10", third.Stats.TotalSequences)
	}
}

// TestBatchCacheMixedHeader checks the /batch header summarizes its
// members: all-miss, then "mixed" when a cached query rides with a fresh
// one, with the per-result "cached" fields telling them apart.
func TestBatchCacheMixedHeader(t *testing.T) {
	s, db := newTestServer(t)
	db.SetCache(cache.New(cache.Config{}))
	rng := rand.New(rand.NewSource(13))
	var stored [][][]float64
	for i := 0; i < 8; i++ {
		pts := walkPoints(rng, 50)
		stored = append(stored, pts)
		doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: fmt.Sprintf("s%d", i), Points: pts})
	}
	q1, q2 := stored[1][5:35], stored[6][10:40]

	rec := doJSON(t, s, "POST", "/search", SearchRequest{Points: q1, Eps: 0.08})
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up search: %d %s", rec.Code, rec.Body)
	}
	rec = doJSON(t, s, "POST", "/batch", BatchSearchRequest{Queries: [][][]float64{q1, q2}, Eps: 0.08})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	if hdr := rec.Header().Get("X-Mdseq-Cache"); hdr != "mixed" {
		t.Errorf("header = %q, want mixed", hdr)
	}
	var batch BatchSearchResponse
	json.Unmarshal(rec.Body.Bytes(), &batch)
	if !batch.Results[0].Cached || batch.Results[1].Cached {
		t.Errorf("cached flags = %v/%v, want true/false",
			batch.Results[0].Cached, batch.Results[1].Cached)
	}

	rec = doJSON(t, s, "POST", "/batch", BatchSearchRequest{Queries: [][][]float64{q1, q2}, Eps: 0.08})
	if hdr := rec.Header().Get("X-Mdseq-Cache"); hdr != "hit" {
		t.Errorf("repeat batch header = %q, want hit", hdr)
	}
}

func TestMethodRouting(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest("DELETE", "/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Errorf("DELETE /stats = %d", rec.Code)
	}
}

func TestTxnzWithoutDurability(t *testing.T) {
	s, _ := newTestServer(t)
	rec := doJSON(t, s, "GET", "/txnz", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /txnz on plain database = %d, want 404", rec.Code)
	}
}

func TestTxnzReportsStats(t *testing.T) {
	base, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	db, err := txn.Wrap(base, txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := New(db)

	doJSON(t, s, "POST", "/sequences", SequenceJSON{Points: [][]float64{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}})

	rec := doJSON(t, s, "GET", "/txnz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /txnz on transactional database = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var st txn.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding /txnz body: %v", err)
	}
	if st.Commits == 0 {
		t.Errorf("Commits = 0, want >0 after an ingest")
	}
}

// hungNode is a shard that never answers: Do, the one method a scatter
// calls, blocks until the call's context is done.
type hungNode struct{ *core.Database }

func (hungNode) Do(ctx context.Context, _ core.Query) (core.Result, error) {
	<-ctx.Done()
	return core.Result{}, ctx.Err()
}

// seedWalks stores 24 random walks through s and returns a 20-point query
// cut from the first.
func seedWalks(t *testing.T, s *Server) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var qpts [][]float64
	for i := 0; i < 24; i++ {
		pts := walkPoints(rng, 40)
		if rec := doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: fmt.Sprint("s", i), Points: pts}); rec.Code != http.StatusCreated {
			t.Fatalf("seed %d: %d %s", i, rec.Code, rec.Body)
		}
		if qpts == nil {
			qpts = pts[:20]
		}
	}
	return qpts
}

// TestFaultHTTPDeadlineMapsTo504: a shard that never answers holds the
// query until the request context's deadline fires, and the handler maps
// context.DeadlineExceeded to 504 Gateway Timeout.
func TestFaultHTTPDeadlineMapsTo504(t *testing.T) {
	const hung = 2
	seeder, loaded := newShardedTestServer(t, 4)
	qpts := seedWalks(t, seeder)
	nodes := make([]shard.Node, loaded.Shards())
	for i := range nodes {
		nodes[i] = loaded.Shard(i)
	}
	nodes[hung] = hungNode{loaded.Shard(hung).(*core.Database)}
	db, err := shard.NewWithNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)

	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(SearchRequest{Points: qpts, Eps: 0.3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/search", &body).WithContext(ctx))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("search past its deadline: %d %s, want 504", rec.Code, rec.Body)
	}
}

// TestFaultHTTPCompleteResponseNotFlagged: a sharded answer is every
// shard's, so its body lists every shard in shardsAnswered and carries no
// "partial" key.
func TestFaultHTTPCompleteResponseNotFlagged(t *testing.T) {
	s, _ := newShardedTestServer(t, 4)
	qpts := seedWalks(t, s)
	rec := doJSON(t, s, "POST", "/search", SearchRequest{Points: qpts, Eps: 0.3})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	if bytes.Contains(rec.Body.Bytes(), []byte(`"partial"`)) {
		t.Fatalf("answer carries a partial key: %s", rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resp.ShardsAnswered) != "[0 1 2 3]" {
		t.Fatalf("shardsAnswered = %v, want every shard", resp.ShardsAnswered)
	}
}
