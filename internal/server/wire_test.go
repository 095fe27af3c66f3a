package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/shard"
)

func toSequence(sj SequenceJSON) (*core.Sequence, error) {
	return core.NewSequence(sj.Label, toPoints(sj.Points))
}

// toPoints converts wire points to the decoder's form, nil staying nil.
func toPoints(raw [][]float64) []geom.Point {
	if raw == nil {
		return nil
	}
	pts := make([]geom.Point, len(raw))
	for i, c := range raw {
		pts[i] = geom.Point(c)
	}
	return pts
}

// --- answers: the appenders against encoding/json on the wire structs ----

// searchResponse builds the documented wire form of a D range answer — what
// the handlers encoded with encoding/json before the appenders, kept as
// the reference they are compared with.
func searchResponse(matches []core.Match, stats core.SearchStats, perShard []shard.ShardStats) SearchResponse {
	resp := SearchResponse{Matches: make([]MatchJSON, len(matches))}
	for _, ps := range perShard {
		resp.ShardsAnswered = append(resp.ShardsAnswered, ps.Shard)
	}
	for i, m := range matches {
		mj := MatchJSON{ID: m.SeqID, Label: m.Seq.Label, MinDnorm: m.MinDnorm}
		for _, rg := range m.Interval.Ranges() {
			mj.Intervals = append(mj.Intervals, [2]int{rg.Start, rg.End})
		}
		resp.Matches[i] = mj
	}
	fillResponse(&resp, stats)
	return resp
}

// metricResponse is the same reference for an exact-metric range answer.
func metricResponse(matches []core.MetricMatch, stats core.SearchStats) SearchResponse {
	resp := SearchResponse{Matches: make([]MatchJSON, len(matches))}
	for i, m := range matches {
		resp.Matches[i] = MatchJSON{ID: m.SeqID, Label: m.Seq.Label, Dist: m.Dist}
	}
	fillResponse(&resp, stats)
	return resp
}

func fillResponse(resp *SearchResponse, stats core.SearchStats) {
	resp.Cached = stats.CacheHit
	resp.Stats.QueryMBRs = stats.QueryMBRs
	resp.Stats.Candidates = stats.CandidatesDmbr
	resp.Stats.TotalSequences = stats.TotalSequences
	resp.Stats.Phase1Us = stats.Phase1.Microseconds()
	resp.Stats.Phase2Us = stats.Phase2.Microseconds()
	resp.Stats.Phase3Us = stats.Phase3.Microseconds()
	resp.Stats.CPUUs = stats.CPUTime.Microseconds()
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var wireLabels = append([]string{
	"", "plain", `quote"back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<script>&amp;</script>",
	"sep\u2028\u2029end", "bad\xff\xfeutf8\xc3", "\xe2\x80", "héllo wörld ✓ 𝄞", "\ufffd",
	// Plain labels, copied as they are by the label pass.
	"s0", "query-07(src=walk@12)", " !#$%'()*+,-./09:;=?@AZ[]^_`az{|}~", "x",
	// Invalid UTF-8: a lone continuation byte, a truncated and an overlong
	// sequence, a surrogate, a byte past U+10FFFF.
	"\x80", "ab\xc3", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}, everyByte(), everyByte()[0x20:0x80], everyByte()[0x80:])

// everyByte is one label holding every byte 0x00 through 0xFF once.
func everyByte() string {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	return string(b)
}

var wireFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 9.99e20, 1e-10, 1.5e-300,
	5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 1e20, 2.5e-5,
}

// wireCase draws one answer's worth of adversarial inputs.
func wireCase(rng *rand.Rand) ([]core.Match, []core.MetricMatch, []core.KNNResult, core.SearchStats, []shard.ShardStats) {
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		return wireFloats[rng.Intn(len(wireFloats))]
	}
	n := rng.Intn(6)
	if rng.Intn(20) == 0 {
		n = 60 + rng.Intn(140) // past one label pass's block
	}
	ms := make([]core.Match, n)
	mms := make([]core.MetricMatch, n)
	ns := make([]core.KNNResult, n)
	for i := 0; i < n; i++ {
		seq := &core.Sequence{Label: wireLabels[rng.Intn(len(wireLabels))]}
		id := rng.Uint32() >> uint(rng.Intn(32))
		if rng.Intn(4) == 0 {
			id = 1e8 - 2 + rng.Uint32()%4 // both sides of the integer table's limit
		}
		ms[i] = core.Match{SeqID: id, Seq: seq, MinDnorm: pick()}
		for j, at := rng.Intn(4), 0; j > 0; j-- {
			at += 1 + rng.Intn(50)<<uint(rng.Intn(24))
			end := at + 1 + rng.Intn(50)
			ms[i].Interval.Add(core.PointRange{Start: at, End: end})
			at = end
		}
		mms[i] = core.MetricMatch{SeqID: id, Seq: seq, Dist: pick()}
		ns[i] = core.KNNResult{SeqID: id, Seq: seq, Dist: pick(), Offset: rng.Intn(1000) << uint(rng.Intn(20))}
	}
	st := core.SearchStats{
		QueryMBRs: rng.Intn(9), CandidatesDmbr: rng.Intn(2000), TotalSequences: rng.Intn(20000),
		Phase1: time.Duration(rng.Int63n(1e7)), Phase2: time.Duration(rng.Int63n(1e9)),
		Phase3: time.Duration(rng.Int63n(1e10)), CPUTime: time.Duration(rng.Int63n(1e11)),
		CacheHit: rng.Intn(2) == 0,
	}
	var perShard []shard.ShardStats
	for i := rng.Intn(5); i > 0; i-- {
		perShard = append(perShard, shard.ShardStats{Shard: len(perShard) * 3})
	}
	return ms, mms, ns, st, perShard
}

// TestAppendResponseMatchesEncodingJSON: the appended bytes of the
// /search (D and metric), /batch and /knn answers equal json.Encoder's on
// the wire structs, over adversarial labels and floats, nil and non-empty
// intervals, and the omitempty fields present and absent.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 2000; iter++ {
		ms, mms, ns, st, perShard := wireCase(rng)

		got, err := appendSearchResponse(nil, core.Result{Matches: ms, Stats: st, PerShard: perShard}, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeJSON(t, searchResponse(ms, st, perShard)); string(got)+"\n" != string(want) {
			t.Fatalf("search answer differs\n got %s\nwant %s", got, want)
		}

		got, err = appendSearchResponse(nil, core.Result{Matches: mms, Stats: st, PerShard: perShard}, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeJSON(t, metricResponse(mms, st)); string(got)+"\n" != string(want) {
			t.Fatalf("metric answer differs\n got %s\nwant %s", got, want)
		}

		got, err = appendNeighbors(nil, ns)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]NeighborJSON, len(ns))
		for i, n := range ns {
			out[i] = NeighborJSON{ID: n.SeqID, Label: n.Seq.Label, Dist: n.Dist, Offset: n.Offset}
		}
		if want := encodeJSON(t, map[string]interface{}{"neighbors": out}); string(got)+"\n" != string(want) {
			t.Fatalf("knn answer differs\n got %s\nwant %s", got, want)
		}
	}

	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		seq := &core.Sequence{Label: "x"}
		if _, err := appendSearchResponse(nil, core.Result{Matches: []core.Match{{Seq: seq, MinDnorm: f}}}, false); err == nil {
			t.Errorf("minDnorm %v appended without error", f)
		}
		if _, err := appendSearchResponse(nil, core.Result{Matches: []core.Match{{Seq: seq, Dist: f}}}, true); err == nil {
			t.Errorf("metric dist %v appended without error", f)
		}
		if _, err := appendNeighbors(nil, []core.KNNResult{{Seq: seq, Dist: f}}); err == nil {
			t.Errorf("knn dist %v appended without error", f)
		}
	}
}

// TestWireBodiesMatchEncodingJSON drives the handlers: every 2xx body of
// /search (d and dtw), /batch and /knn is what encoding/json writes for
// the same answer decoded back into the wire structs, and carries its
// length.
func TestWireBodiesMatchEncodingJSON(t *testing.T) {
	s, _ := newShardedTestServer(t, 3)
	rng := rand.New(rand.NewSource(15))
	var stored [][][]float64
	for i := 0; i < 30; i++ {
		pts := walkPoints(rng, 50)
		stored = append(stored, pts)
		doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: fmt.Sprintf(`s<%d>"`, i), Points: pts})
	}
	q := stored[3][5:35]
	w := 6
	cases := []struct {
		path string
		req  any
		into func() any
	}{
		{"/search", SearchRequest{Points: q, Eps: 0.3}, func() any { return &SearchResponse{} }},
		{"/search", SearchRequest{Points: q, Eps: 1e-9}, func() any { return &SearchResponse{} }},
		{"/search", SearchRequest{Points: q, Eps: 0.3, Metric: "dtw", DTWWindow: &w}, func() any { return &SearchResponse{} }},
		{"/search", SearchRequest{Points: q, Eps: 0.3, Metric: "d"}, func() any { return &SearchResponse{} }},
		{"/batch", BatchSearchRequest{Queries: [][][]float64{q, stored[8][:20]}, Eps: 0.2}, func() any { return &BatchSearchResponse{} }},
		{"/knn", KNNRequest{Points: q, K: 5}, func() any {
			return &struct {
				Neighbors []NeighborJSON `json:"neighbors"`
			}{}
		}},
		{"/knn", KNNRequest{Points: q, K: 5, Metric: "dtw"}, func() any {
			return &struct {
				Neighbors []NeighborJSON `json:"neighbors"`
			}{}
		}},
	}
	for _, c := range cases {
		rec := doJSON(t, s, "POST", c.path, c.req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, rec.Code, rec.Body)
		}
		v := c.into()
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: %v in %s", c.path, err, rec.Body)
		}
		if want := encodeJSON(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s body is not encoding/json's\n got %s\nwant %s", c.path, rec.Body, want)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("%s Content-Length = %q for %d bytes", c.path, got, rec.Body.Len())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q", c.path, ct)
		}
	}
}

// TestOverflowingAnswerIs400: a query whose coordinates are finite but so
// large that every distance overflows to +Inf used to get the status line
// of a 200 and then no body, because the encoder's error was dropped after
// the header had gone out. Bodies are now built first.
func TestOverflowingAnswerIs400(t *testing.T) {
	s, _ := newShardedTestServer(t, 2)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 6; i++ {
		doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: fmt.Sprint("s", i), Points: walkPoints(rng, 30)})
	}
	huge := make([][]float64, 10)
	for i := range huge {
		huge[i] = []float64{1e200, 1e200, 1e200}
	}
	for _, c := range []struct {
		path string
		req  any
	}{
		{"/knn", KNNRequest{Points: huge, K: 3}},
		{"/explain", SearchRequest{Points: huge, Eps: 0.1}},
	} {
		rec := doJSON(t, s, "POST", c.path, c.req)
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("%s with overflowing distances: %d %q, want 400 with an error body", c.path, rec.Code, rec.Body)
		}
	}
}

// discardWriter is the cheapest ResponseWriter: the allocation test counts
// the server's allocations, not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestSearchWireAllocs: a warmed /search returning at least 300 matches
// through ServeHTTP stays under an allocation count that does not depend on
// the answer. What remains is the search's own result (one list, one
// interval slab), the request's two point allocations and net/http's
// per-request state; the encoding/json wire path spent about three per match
// on MatchJSON, its intervals and reflection, plus one per query point, and
// the search one more per match on its interval.
func TestSearchWireAllocs(t *testing.T) {
	s, _ := newShardedTestServer(t, 1)
	rng := rand.New(rand.NewSource(17))
	const nseq = 330
	batch := struct {
		Sequences []SequenceJSON `json:"sequences"`
	}{}
	for i := 0; i < nseq; i++ {
		batch.Sequences = append(batch.Sequences, SequenceJSON{Label: fmt.Sprint("s", i), Points: walkPoints(rng, 40)})
	}
	if rec := doJSON(t, s, "POST", "/sequences/batch", batch); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	reqBody, err := json.Marshal(SearchRequest{Points: walkPoints(rng, 62), Eps: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/search", bytes.NewReader(reqBody)))
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Matches) < 300 {
		t.Fatalf("warm-up search: %d matches (err %v), want >= 300", len(resp.Matches), err)
	}

	rd := bytes.NewReader(reqBody)
	req := httptest.NewRequest("POST", "/search", nil)
	w := &discardWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(reqBody)
		req.Body = io.NopCloser(rd)
		clear(w.h)
		w.n = 0
		s.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK || w.n < rec.Body.Len()/2 {
		t.Fatalf("measured runs answered %d with %d bytes, warm-up %d bytes", w.status, w.n, rec.Body.Len())
	}
	t.Logf("%d matches, %d-byte answer: %.0f allocs per request", len(resp.Matches), w.n, allocs)
	const ceiling = 60
	if allocs > ceiling {
		t.Errorf("%.0f allocs per request, want <= %d", allocs, ceiling)
	}
}

// --- requests: the scanner against json.Decoder on the wire structs ------

// The reference for the two bodies that have no exported wire type.
type (
	addBatchRequest struct {
		Sequences []SequenceJSON `json:"sequences"`
	}
	appendRequest struct {
		Points [][]float64 `json:"points"`
	}
)

func sequenceBody(sj SequenceJSON) body {
	return body{ID: sj.ID, Label: sj.Label, Points: toPoints(sj.Points)}
}

// requestShapes pairs each request body's field set with its reference:
// json.Decoder with DisallowUnknownFields into the wire struct, converted
// to the scanner's form.
var requestShapes = []struct {
	name    string
	allowed field
	ref     func(*json.Decoder) (body, error)
}{
	{"search", searchFields, func(dec *json.Decoder) (body, error) {
		var r SearchRequest
		err := dec.Decode(&r)
		return body{Points: toPoints(r.Points), Eps: r.Eps, Metric: r.Metric, DTWWindow: r.DTWWindow}, err
	}},
	{"knn", knnFields, func(dec *json.Decoder) (body, error) {
		var r KNNRequest
		err := dec.Decode(&r)
		return body{Points: toPoints(r.Points), K: r.K, Metric: r.Metric, DTWWindow: r.DTWWindow}, err
	}},
	{"batch", batchFields, func(dec *json.Decoder) (body, error) {
		var r BatchSearchRequest
		err := dec.Decode(&r)
		b := body{Eps: r.Eps}
		if r.Queries != nil {
			b.Queries = make([][]geom.Point, len(r.Queries))
			for i, q := range r.Queries {
				b.Queries[i] = toPoints(q)
			}
		}
		return b, err
	}},
	{"sequence", sequenceFields, func(dec *json.Decoder) (body, error) {
		var r SequenceJSON
		err := dec.Decode(&r)
		return sequenceBody(r), err
	}},
	{"addBatch", addBatchFields, func(dec *json.Decoder) (body, error) {
		var r addBatchRequest
		err := dec.Decode(&r)
		var b body
		if r.Sequences != nil {
			b.Sequences = make([]body, len(r.Sequences))
			for i, sj := range r.Sequences {
				b.Sequences[i] = sequenceBody(sj)
			}
		}
		return b, err
	}},
	{"append", appendFields, func(dec *json.Decoder) (body, error) {
		var r appendRequest
		err := dec.Decode(&r)
		return body{Points: toPoints(r.Points)}, err
	}},
}

// diffPoints compares two point lists the way the database sees them:
// nil against empty, lengths, and every coordinate bit for bit.
func diffPoints(at string, got, want []geom.Point) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%s: %d points (nil %v), want %d (nil %v)", at, len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			return fmt.Sprintf("%s[%d] = %v, want %v", at, i, got[i], want[i])
		}
		for j := range got[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Sprintf("%s[%d][%d] = %v, want %v", at, i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// diffBody returns "" when the scanner's result equals the reference.
func diffBody(at string, got, want body) string {
	if d := diffPoints(at+"points", got.Points, want.Points); d != "" {
		return d
	}
	if math.Float64bits(got.Eps) != math.Float64bits(want.Eps) ||
		got.Metric != want.Metric || got.K != want.K || got.ID != want.ID || got.Label != want.Label {
		return fmt.Sprintf("%sscalars = %+v, want %+v", at, got, want)
	}
	if (got.DTWWindow == nil) != (want.DTWWindow == nil) || got.DTWWindow != nil && *got.DTWWindow != *want.DTWWindow {
		return fmt.Sprintf("%sdtwWindow = %v, want %v", at, got.DTWWindow, want.DTWWindow)
	}
	if (got.Queries == nil) != (want.Queries == nil) || len(got.Queries) != len(want.Queries) {
		return fmt.Sprintf("%s%d queries (nil %v), want %d (nil %v)", at, len(got.Queries), got.Queries == nil, len(want.Queries), want.Queries == nil)
	}
	for i := range got.Queries {
		if d := diffPoints(fmt.Sprintf("%squeries[%d]", at, i), got.Queries[i], want.Queries[i]); d != "" {
			return d
		}
	}
	if (got.Sequences == nil) != (want.Sequences == nil) || len(got.Sequences) != len(want.Sequences) {
		return fmt.Sprintf("%s%d sequences (nil %v), want %d (nil %v)", at, len(got.Sequences), got.Sequences == nil, len(want.Sequences), want.Sequences == nil)
	}
	for i := range got.Sequences {
		if d := diffBody(fmt.Sprintf("%ssequences[%d].", at, i), got.Sequences[i], want.Sequences[i]); d != "" {
			return d
		}
	}
	return ""
}

// decodeSeeds are request bodies worth starting from: the bad-body tables
// of TestBadRequests and the metric tests, one well-formed body per shape,
// and the corners where a hand-written scanner and encoding/json could
// part ways.
var decodeSeeds = []string{
	// TestBadRequests, TestBatchEndpointBadRequests, TestMetricHTTPValidation
	`{`,
	`{"label":"x","points":[]}`,
	`{"label":"x","points":[[0.1]],"bogus":1}`,
	`{"points":[[0.1,0.2,0.3]],"eps":-1}`,
	`{"points":[],"k":3}`,
	`{"queries":null,"eps":0.1}`,
	`{"queries":[[[0.1,0.2,0.3]],[]],"eps":0.1}`,
	`{"points":[[0.1,0.2,0.3]],"eps":0.2,"metric":"chebyshev"}`,
	`{"points":[[0.1,0.2,0.3]],"eps":0.2,"metric":"dtw","dtwWindow":-3}`,
	// well-formed
	`{"points":[[0.25,0.5,0.75],[1e-3,2E+2,-0.0]],"eps":0.125,"parallel":true,"metric":"dtw","dtwWindow":4}`,
	`{"points":[[1,2,3]],"k":5,"metric":"d","dtwWindow":null}`,
	`{"queries":[[[1,2,3],[4,5,6]],[[7,8,9]]],"eps":1}`,
	`{"id":7,"label":"walk","points":[[0.1,0.2],[0.3,0.4]]}`,
	`{"sequences":[{"label":"a","points":[[1,2]]},{"label":"b","points":[[3,4],[5,6]]},null]}`,
	" \t\r\n{ \"points\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] , \"eps\" : 1 } trailing garbage",
	// nulls: a scalar keeps its value, a slice or pointer is cleared
	`null`, `nullx`, `nul`, ` null{"eps":1}`,
	`{"points":null,"eps":null,"parallel":null,"metric":null,"dtwWindow":null,"k":null,"label":null,"id":null}`,
	`{"points":[null,[1,null,3]],"eps":1}`,
	`{"eps":2,"eps":null,"dtwWindow":3,"dtwWindow":null,"metric":"dtw","metric":null}`,
	// duplicate keys decode over the earlier value in place
	`{"points":[[1,2,3],[4,5,6]],"points":[[7]],"points":[[null,null],[null]],"eps":1,"eps":2}`,
	`{"points":[[1,2,3]],"points":[],"points":[[null]]}`,
	`{"points":[[1,2,3]],"points":null,"points":[[null]]}`,
	`{"queries":[[[1,2],[3,4]],[[5,6]]],"queries":[[[null]],[[null,null],[null]]]}`,
	`{"sequences":[{"id":1,"label":"a","points":[[1,2]]},{"label":"b"}],"sequences":[{"label":"c"},null,{"points":[[null,null,null]]}]}`,
	`{"dtwWindow":1,"dtwWindow":2,"k":1,"K":2}`,
	// key matching: case folding, escapes, non-ASCII fold partners (U+017F long s folds to s, U+212A Kelvin sign to k)
	`{"POINTS":[[1]],"Eps":1,"PARALLEL":true,"Metric":"d","DTWWINDOW":1,"dtwwindow":2}`,
	`{"eps":1,"points":[[1]]}`,
	"{\"ep\u017f\":1,\"point\u017f\":[[1]],\"\u212a\":3,\"metri\u0107\":\"d\"}",
	`{"":1}`, `{"eps ":1}`, `{"e\ps":1}`, `{"eps\ud800":1}`, "{\"eps\xff\":1}",
	// strings
	`{"label":"q\"\\\/\b\f\n\r\té𝄞\ud800","points":[[1]]}`,
	"{\"label\":\"raw\x01control\"}", "{\"label\":\"bad\xffutf8\",\"metric\":\"\xc3\"}", `{"label":"unterminated`,
	`{"label":"bad \x escape"}`, `{"label":"short \u12"}`, `{"metric":5}`, `{"label":["a"]}`,
	// numbers
	`{"eps":1e999}`, `{"eps":-1e999}`, `{"eps":1e-999}`, `{"eps":-}`, `{"eps":01}`, `{"eps":1.}`, `{"eps":.5}`,
	`{"eps":1e}`, `{"eps":1e+}`, `{"eps":+1}`, `{"eps":0x10}`, `{"eps":1_0}`, `{"eps":-0}`, `{"eps":0e0}`,
	`{"eps":NaN}`, `{"eps":Infinity}`, `{"eps":"1"}`, `{"eps":true}`, `{"eps":[1]}`, `{"eps":{}}`,
	`{"eps":123456789012345678901234567890.123456789012345678901234567890e-10}`,
	`{"eps":2.2250738585072011e-308}`, `{"eps":4.9e-324}`, `{"eps":0.1e1}`, `{"eps":1E5}`,
	`{"k":3.0}`, `{"k":1e2}`, `{"k":-0}`, `{"k":9223372036854775807}`, `{"k":9223372036854775808}`, `{"k":-9223372036854775808}`,
	`{"id":-0}`, `{"id":-1}`, `{"id":4294967295}`, `{"id":4294967296}`, `{"id":1.0}`, `{"dtwWindow":2.5}`, `{"dtwWindow":"1"}`,
	`{"parallel":1}`, `{"parallel":"true"}`, `{"parallel":tru}`, `{"parallel":truex}`, `{"parallel":false,"parallel":true}`,
	// nesting and punctuation
	`{"points":[[1,2],3]}`, `{"points":[[[1]]]}`, `{"points":[1,2]}`, `{"points":{}}`, `{"points":"[[1]]"}`, `{"points":[[1,2]`,
	`{"points":[[1,2]]`, `{"points":[[1,2],]}`, `{"points":[[1,,2]]}`, `{"points":[,[1]]}`, `{"points":[[1 2]]}`, `{"points":[[1]] "eps":1}`,
	`{"points":[[1]],}`, `{,"eps":1}`, `{"eps" 1}`, `{"eps":}`, `{eps:1}`, `{"eps":1}}`, `{"eps":1]`, `[{"eps":1}]`, `"eps"`, `12`, `true`, ``, ` `,
	`{"points":[[true]]}`, `{"points":[["1"]]}`, `{"points":[[{}]]}`, `{"queries":[[1]]}`, `{"queries":[[[1]],null,[null]]}`, `{"queries":[]}`,
	`{"sequences":[1]}`, `{"sequences":{}}`, `{"sequences":[{"bogus":1}]}`, `{"sequences":[{"eps":1}]}`, `{"sequences":[]}`, `{"sequences":[[]]}`,
	`{"points":[[1]]}{"points":[[2]]}`, "\ufeff{\"eps\":1}",
	strings.Repeat("[", 200), `{"points":` + strings.Repeat("[", 200) + `}`,
}

// checkDecodeAgainstEncodingJSON is the property FuzzDecodeRequest holds
// on every input, for each of the six body shapes.
func checkDecodeAgainstEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	for _, shape := range requestShapes {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		want, wantErr := shape.ref(dec)
		var got body
		gotErr := decodeRequest(data, shape.allowed, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s body %q: scanner error %v, encoding/json error %v", shape.name, data, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if d := diffBody("", got, want); d != "" {
			t.Fatalf("%s body %q: %s", shape.name, data, d)
		}
	}
}

// FuzzDecodeRequest: for every input and each of the six request bodies,
// the scanner accepts exactly what json.Decoder with DisallowUnknownFields
// accepts, and an accepted body decodes to the same values.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeAgainstEncodingJSON)
}

// TestDecodeRequestRandomBodies holds the same property over bodies spliced
// from the seeds' own fragments, which reaches the duplicate-key and null
// corners faster than byte-level mutation does.
func TestDecodeRequestRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	frags := []string{
		`"points":`, `"eps":`, `"k":`, `"metric":`, `"dtwWindow":`, `"parallel":`, `"queries":`, `"sequences":`, `"label":`, `"id":`, `"Points":`, `"bogus":`,
		`[[1,2,3],[4,5,6]]`, `[[7]]`, `[[null,null,null,null],[null],[null,8]]`, `[]`, `[[]]`, `[null]`, `null`, `[[[1,2],[3]],[[4]]]`, `[[[null,null]],[[null],[null]],null]`,
		`[{"label":"a","points":[[1,2]]},{"id":3}]`, `[{"points":[[null,null,null]]},null,{"label":"z"}]`, `{"label":"b"}`,
		`1`, `-0`, `2.5`, `1e2`, `"dtw"`, `"x"`, `true`, `false`, `{}`, `,`, `,`, `,`, ` `,
	}
	for iter := 0; iter < 20000; iter++ {
		var sb strings.Builder
		sb.WriteByte('{')
		for n := 1 + rng.Intn(6); n > 0; n-- {
			sb.WriteString(frags[rng.Intn(12)])
			sb.WriteString(frags[12+rng.Intn(len(frags)-12)])
			if n > 1 {
				sb.WriteByte(',')
			}
		}
		sb.WriteByte('}')
		checkDecodeAgainstEncodingJSON(t, []byte(sb.String()))
	}
}

// TestDecodeArenaBoundedByBody: a body cannot make the decoder allocate
// more than a well-formed body of its size uses. The first four 4 MiB
// floods are refused after a few bytes, yet the arenas are sized before
// the points are read; counting raw commas and brackets, a bracket flood
// cost 96 MiB and a comma flood 32 MiB. The last two repeat one key, a
// null between its values, so that every value would be sized against the
// rest of the body (terabytes in all); they are refused only at the end.
// Now none costs more than the densest accepted body of that size, 1-d
// points of one digit, whose two arenas still take the only 2 allocations.
func TestDecodeArenaBoundedByBody(t *testing.T) {
	const size = 4 << 20
	flood := func(prefix, unit string) []byte {
		b := []byte(prefix)
		for len(b)+len(unit) <= size {
			b = append(b, unit...)
		}
		return b
	}
	allocated := func(b []byte, allowed field) (uint64, float64, error) {
		var err error
		var req body
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(1, func() {
			req = body{}
			err = decodeRequest(b, allowed, &req)
		})
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 2, allocs, err // AllocsPerRun runs it twice
	}

	accepted := append(flood(`{"points":[`, "[1],")[:size-len("[1]]}")], "[1]]}"...)
	limit, allocs, err := allocated(accepted, appendFields)
	if err != nil || allocs > 2 {
		t.Fatalf("accepted body: %v, %.0f allocations, want nil and 2", err, allocs)
	}
	for _, fc := range []struct {
		allowed      field
		prefix, unit string
	}{
		{appendFields, `{"points":`, "["},
		{appendFields, `{"points":`, ","},
		{appendFields, `{"points":`, "[1,"},
		{appendFields, `{"points":`, "[,"},
		{appendFields, `{`, `"points":[],"points":null,`},
		{batchFields, `{`, `"queries":[],"queries":null,`},
	} {
		got, _, err := allocated(flood(fc.prefix, fc.unit), fc.allowed)
		if err == nil {
			t.Fatalf("%q flood accepted", fc.unit)
		}
		t.Logf("%q flood: %d bytes allocated (an accepted body of its size: %d)", fc.unit, got, limit)
		if got > limit {
			t.Errorf("%q flood of %d bytes allocated %d bytes before it was refused, an accepted body of that size %d", fc.unit, size, got, limit)
		}
	}
}

// BenchmarkDecodeRequest decodes the two request bodies that carry the
// benchmark workloads' coordinates: a 62-point /search query and a
// 40-sequence /sequences/batch write, Table 2 synthetic points as
// encoding/json writes them.
func BenchmarkDecodeRequest(b *testing.B) {
	cfg := experiment.PaperSynthetic()
	cfg.NumSequences = 40
	data, err := experiment.GenerateData(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wire := func(pts []geom.Point) [][]float64 {
		out := make([][]float64, len(pts))
		for i, p := range pts {
			out[i] = p
		}
		return out
	}
	var query [][]float64
	batch := addBatchRequest{}
	for i, seq := range data {
		if query == nil && seq.Len() >= 62 {
			query = wire(seq.Points[:62])
		}
		batch.Sequences = append(batch.Sequences, SequenceJSON{Label: fmt.Sprint("s", i), Points: wire(seq.Points)})
	}
	for _, bc := range []struct {
		name    string
		allowed field
		req     any
	}{
		{"search62", searchFields, SearchRequest{Points: query, Eps: 0.1}},
		{"batch40", addBatchFields, batch},
	} {
		raw, err := json.Marshal(bc.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				decodeSink = body{}
				if err := decodeRequest(raw, bc.allowed, &decodeSink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var decodeSink body

// BenchmarkAppendSearchResponse encodes a Table 2-sized range answer: 300
// matches whose sequences lie scattered over a heap larger than the
// caches, as a long-running server's do, each with one or two intervals
// and a distance of full precision.
func BenchmarkAppendSearchResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	const answers = 64
	pool := make([]*core.Sequence, 1<<16)
	for i := range pool {
		pool[i] = &core.Sequence{Label: fmt.Sprintf("walk-%05d", i), Points: make([]geom.Point, 4)}
	}
	res := make([]core.Result, answers)
	for a := range res {
		ms := make([]core.Match, 300)
		for i := range ms {
			seq := pool[rng.Intn(len(pool))]
			ms[i] = core.Match{SeqID: uint32(rng.Intn(16000)), Seq: seq, MinDnorm: rng.Float64() * 0.3}
			at := rng.Intn(400)
			for j := 1 + rng.Intn(2); j > 0; j-- {
				end := at + 1 + rng.Intn(100)
				ms[i].Interval.Add(core.PointRange{Start: at, End: end})
				at = end + 1 + rng.Intn(50)
			}
		}
		res[a] = core.Result{Matches: ms}
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendSearchResponse(buf[:0], res[i%answers], false); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
