package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// wideEvents returns the "request" lines logged into out, in order.
func wideEvents(t *testing.T, out string) []string {
	t.Helper()
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, `"msg":"request"`) {
			lines = append(lines, line)
		}
	}
	return lines
}

// objectKeys returns the top-level keys of one JSON object in the order
// they are written, repeats included: a map would keep only the last.
func objectKeys(t *testing.T, line string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", line)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestWideEventKeysOnceOnShards: on four shards a D kNN, a DTW kNN and a
// range search each log one wide event whose keys are all distinct — one
// span.<name>.ms per span name, though four shards recorded a "shard" span
// and a kernel span each — and whose span.shard.ms is the slowest shard's.
func TestWideEventKeysOnceOnShards(t *testing.T) {
	db, err := shard.New(core.Options{Dim: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var buf syncBuffer
	s := New(db, WithLogger(slog.New(slog.NewJSONHandler(&buf, nil))))
	first := seedCorpus(t, s, 12)
	dtw := "dtw"
	for _, c := range []struct {
		path string
		body any
		span string // a kernel span every shard records
	}{
		{"/knn", KNNRequest{Points: first[:30], K: 3}, "knn"},
		{"/knn", KNNRequest{Points: first[:30], K: 3, Metric: dtw}, "dtw-knn"},
		{"/search", SearchRequest{Points: first[:20], Eps: 0.3}, "refine"},
	} {
		before := len(wideEvents(t, buf.String()))
		if rec := doJSON(t, s, "POST", c.path, c.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, rec.Code, rec.Body)
		}
		lines := wideEvents(t, buf.String())
		if len(lines) != before+1 {
			t.Fatalf("%s: %d wide events, want one", c.path, len(lines)-before)
		}
		keys := objectKeys(t, lines[len(lines)-1])
		seen := map[string]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("%s %s: key %q repeated in %s", c.path, c.span, k, lines[len(lines)-1])
			}
			seen[k] = true
		}
		for _, k := range []string{"span.scatter.ms", "span.shard.ms", "span." + c.span + ".ms"} {
			if !seen[k] {
				t.Fatalf("%s %s: no %q in %s", c.path, c.span, k, lines[len(lines)-1])
			}
		}
	}
}

// maskWide drops the time from a wide event and writes every value that
// varies from run to run — the request ID, the durations, the body size
// (an answer carries its phase timings) — as 0, so the rest of a line
// compares byte for byte.
func maskWide(groups []string, a slog.Attr) slog.Attr {
	switch {
	case a.Key == slog.TimeKey && len(groups) == 0:
		return slog.Attr{}
	case a.Key == "requestID", a.Key == "duration", a.Key == "bytes",
		strings.HasPrefix(a.Key, "span.") && strings.HasSuffix(a.Key, ".ms"):
		return slog.Int(a.Key, 0)
	}
	return a
}

// oneNodeWideEvents serves a fixed sequence of requests on one node and
// returns their masked wide events, one line each.
func oneNodeWideEvents(t *testing.T) string {
	t.Helper()
	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var out bytes.Buffer
	s := New(db, WithLogger(slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{ReplaceAttr: maskWide}))))
	rng := rand.New(rand.NewSource(7))
	var pts [][]float64
	for i := 0; i < 10; i++ {
		pts = walkPoints(rng, 50)
		if rec := doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: string(rune('a' + i)), Points: pts}); rec.Code != http.StatusCreated {
			t.Fatalf("add: %d %s", rec.Code, rec.Body)
		}
	}
	out.Reset()
	dtw := "dtw"
	for _, r := range []struct {
		path string
		body any
	}{
		{"/search", SearchRequest{Points: pts[:25], Eps: 0.2}},
		{"/search", SearchRequest{Points: pts[:25], Eps: 0.2, Metric: dtw}},
		{"/knn", KNNRequest{Points: pts[:25], K: 2}},
		{"/knn", KNNRequest{Points: pts[:25], K: 2, Metric: dtw}},
		{"/search", SearchRequest{Points: pts[:25], Eps: -1}},
	} {
		doJSON(t, s, "POST", r.path, r.body)
	}
	doJSON(t, s, "GET", "/healthz", nil)
	return out.String()
}

// oneNodeGolden is oneNodeWideEvents' output as the middleware wrote it
// when it built the line with Logger.LogAttrs from Trace.WideAttrs.
const oneNodeGolden = `{"level":"INFO","msg":"request","requestID":0,"status":200,"bytes":0,"duration":0,"method":"POST","path":"/search","eps":0.2,"query_points":25,"candidates":2,"matches":2,"cached":false,"span.partition.ms":0,"span.filter.ms":0,"span.refine.ms":0}
{"level":"INFO","msg":"request","requestID":0,"status":200,"bytes":0,"duration":0,"method":"POST","path":"/search","eps":0.2,"query_points":25,"candidates":2,"matches":2,"cached":false,"metric":"dtw","span.envelope.ms":0,"span.filter.ms":0,"span.dtw-refine.ms":0}
{"level":"INFO","msg":"request","requestID":0,"status":200,"bytes":0,"duration":0,"method":"POST","path":"/knn","k":2,"query_points":25,"span.knn.ms":0}
{"level":"INFO","msg":"request","requestID":0,"status":200,"bytes":0,"duration":0,"method":"POST","path":"/knn","k":2,"query_points":25,"span.dtw-knn.ms":0}
{"level":"INFO","msg":"request","requestID":0,"status":400,"bytes":0,"duration":0,"method":"POST","path":"/search","error":"Bad Request"}
{"level":"INFO","msg":"request","requestID":0,"status":200,"bytes":0,"duration":0,"method":"GET","path":"/healthz"}
`

// TestWideEventOneNodeUnchanged holds a one-node request's wide event, whose
// span names are all distinct, to the bytes the middleware wrote before it
// folded repeated span names and bypassed Logger.LogAttrs: only the time
// and the values that vary from run to run are masked.
func TestWideEventOneNodeUnchanged(t *testing.T) {
	got := oneNodeWideEvents(t)
	if got != oneNodeGolden {
		t.Fatalf("one-node wide events changed:\n got %s\nwant %s", got, oneNodeGolden)
	}
}
