package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"
)

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := NewTrace().ID
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate request id %q", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	done := tr.StartSpan("work")
	time.Sleep(time.Millisecond)
	done()
	tr.RecordSpan(0, "lifted", 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "work" || spans[0].Dur <= 0 {
		t.Fatalf("bad measured span %+v", spans[0])
	}
	if spans[1].Name != "lifted" || spans[1].Dur != 5*time.Millisecond || spans[1].Start < 0 {
		t.Fatalf("bad lifted span %+v", spans[1])
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x")()
	tr.RecordSpan(0, "y", time.Second)
	if tr.Spans() != nil || tr.Age() != 0 || tr.WideAttrs() != nil {
		t.Fatal("nil trace leaked state")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a trace")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
}

// TestMiddleware exercises the full HTTP wrapper: request ID header,
// trace in context, metrics, and the structured log line.
func TestMiddleware(t *testing.T) {
	reg := NewRegistry()
	var logBuf strings.Builder
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	var ctxID string
	h := Middleware(reg, logger, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctxID = FromContext(r.Context()).ID
		w.WriteHeader(http.StatusTeapot)
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/teapot", nil))

	hdr := rec.Header().Get("X-Request-ID")
	if hdr == "" || hdr != ctxID {
		t.Fatalf("X-Request-ID %q != context trace id %q", hdr, ctxID)
	}
	if got := reg.Counter("mdseq_http_requests_total", "",
		Label{"method", "GET"}, Label{"code", "418"}).Value(); got != 1 {
		t.Fatalf("requests_total{GET,418} = %d, want 1", got)
	}
	log := logBuf.String()
	for _, want := range []string{`"msg":"request"`, `"requestID":"` + hdr, `"status":418`, `"path":"/teapot"`} {
		if !strings.Contains(log, want) {
			t.Fatalf("log line missing %q:\n%s", want, log)
		}
	}
}
