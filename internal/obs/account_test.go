package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestWideAttrsOneKeyPerSpanName: spans sharing a name — one per shard of
// a scatter — become one span.<name>.ms attribute, at the place the name
// first appears and with the longest of their durations; the span list
// itself keeps every one of them.
func TestWideAttrsOneKeyPerSpanName(t *testing.T) {
	tr := NewTrace()
	tr.SetAttrs(Str("path", "/knn"))
	for _, d := range []time.Duration{2, 7, 3, 5} {
		tr.RecordSpan(1, "dtw-knn", d*time.Millisecond)
		tr.RecordSpan(1, "shard", (d+1)*time.Millisecond)
	}
	tr.RecordSpan(0, "scatter", 9*time.Millisecond)
	var got []string
	ms := map[string]float64{}
	for _, a := range tr.WideAttrs() {
		got = append(got, a.Key)
		if a.Value.Kind() == slog.KindFloat64 {
			ms[a.Key] = a.Value.Float64()
		}
	}
	want := []string{"path", "span.dtw-knn.ms", "span.shard.ms", "span.scatter.ms"}
	if len(got) != len(want) {
		t.Fatalf("wide attrs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wide attrs %v, want %v", got, want)
		}
	}
	if ms["span.dtw-knn.ms"] != 7 || ms["span.shard.ms"] != 8 || ms["span.scatter.ms"] != 9 {
		t.Fatalf("span durations %v, want the longest of each name: 7, 8, 9", ms)
	}
	if n := len(tr.Spans()); n != 9 {
		t.Fatalf("trace keeps %d spans, want all 9", n)
	}
}

// TestEndedTraceIsFrozen: the recorder keeps the trace End ended, not a
// copy, so End freezes it — a span, attribute or error recorded after End
// (a straggler the request did not wait for) must not change what
// /debug/tracez serves for it, and its duration stops at End.
func TestEndedTraceIsFrozen(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	tr := NewTrace()
	rec.Start(tr)
	ctx, end := StartSpan(WithTrace(context.Background(), tr), "scatter")
	_, endLate := StartSpan(ctx, "shard")
	end(Int("shards", 2))
	rec.End(tr)
	before, err := json.Marshal(rec.Dump())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	endLate(Int("shard", 1))
	tr.RecordSpan(0, "late", time.Millisecond)
	tr.SetAttrs(Str("late", "yes"))
	tr.MarkError("late")
	after, err := json.Marshal(rec.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("a retained trace changed after End:\nbefore %s\nafter  %s", before, after)
	}
	if d := rec.Dump(); len(d.Recent) != 1 || len(d.Recent[0].Spans) != 1 || d.Recent[0].Status != "ok" {
		t.Fatalf("retained trace %+v, want the one span recorded before End, status ok", d.Recent)
	}
}

// TestMiddlewareResolvesInstrumentsOnce: after the first request of a
// (method, code) the middleware counts and times its requests without
// looking them up in the registry — it serves with the registry's lock
// held — and allocates nothing for them: a request costs what it costs
// without metrics.
func TestMiddlewareResolvesInstrumentsOnce(t *testing.T) {
	reg := NewRegistry()
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	with, without := Middleware(reg, nil, nil, ok), Middleware(nil, nil, nil, ok)
	serve := func(h http.Handler) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	}
	serve(with)

	reg.mu.Lock()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 3; i++ {
			serve(with)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a repeated (method, code) waited for the registry's lock")
	}
	reg.mu.Unlock()

	c := reg.Counter("mdseq_http_requests_total", "", Label{Key: "code", Value: "204"}, Label{Key: "method", Value: "GET"})
	if n := c.Value(); n != 4 {
		t.Fatalf("mdseq_http_requests_total{code=204,method=GET} = %d, want 4", n)
	}
	a, b := testing.AllocsPerRun(200, func() { serve(with) }), testing.AllocsPerRun(200, func() { serve(without) })
	if a > b {
		t.Fatalf("a request allocates %.1f times with metrics, %.1f without", a, b)
	}
}
