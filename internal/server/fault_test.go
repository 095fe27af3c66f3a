package server

// End-to-end fault tests: the robustness layer observed through the HTTP
// surface — partial responses flagged in the JSON body, deadline failures
// mapped to gateway-timeout status codes, and hedge wins visible on
// GET /metrics.

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// decode unmarshals a recorded JSON response body, failing the test on
// malformed output.
func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
}

// faultedShardedServer builds a 4-shard server with a corpus on every
// shard and installs the given fault script (cycled) on shard `target`.
func faultedShardedServer(t *testing.T, target int, script ...shard.Fault) (*Server, *shard.ShardedDB, *obs.Registry, [][]float64) {
	t.Helper()
	reg := obs.NewRegistry()
	db, err := shard.New(core.Options{Dim: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.SetMetrics(reg)
	s := New(db, WithMetrics(reg))

	rng := rand.New(rand.NewSource(7))
	var qpts [][]float64
	for i := 0; i < 24; i++ {
		pts := walkPoints(rng, 40)
		rec := doJSON(t, s, "POST", "/sequences", SequenceJSON{Label: strings.Repeat("s", i+1), Points: pts})
		if rec.Code != http.StatusCreated {
			t.Fatalf("seed %d: %d %s", i, rec.Code, rec.Body)
		}
		if qpts == nil {
			qpts = pts[:20]
		}
	}
	f := shard.NewFaultDB(db.Shard(target), script...)
	f.Cycle = true
	db.SetShardBackend(target, f)
	return s, db, reg, qpts
}

// TestFaultHTTPPartialResponse: with AllowPartial, a hung shard degrades
// the HTTP answer to 200 with "partial": true and the answered-shard
// list excluding the hung one.
func TestFaultHTTPPartialResponse(t *testing.T) {
	const hung = 1
	s, db, _, qpts := faultedShardedServer(t, hung, shard.Fault{Hang: true})
	db.SetPolicy(shard.Policy{ShardTimeout: 50 * time.Millisecond, AllowPartial: true})

	rec := doJSON(t, s, "POST", "/search", SearchRequest{Points: qpts, Eps: 0.3})
	if rec.Code != http.StatusOK {
		t.Fatalf("partial search: %d %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	decodeBody(t, rec, &resp)
	if !resp.Partial {
		t.Fatal(`response missing "partial": true`)
	}
	if len(resp.ShardsAnswered) != 3 {
		t.Fatalf("shardsAnswered = %v, want 3 shards", resp.ShardsAnswered)
	}
	for _, sh := range resp.ShardsAnswered {
		if sh == hung {
			t.Fatalf("hung shard %d listed as answered: %v", hung, resp.ShardsAnswered)
		}
	}
}

// TestFaultHTTPDeadlineMapsTo504: without AllowPartial a shard timeout
// fails the query, and the handler maps context.DeadlineExceeded to 504
// Gateway Timeout.
func TestFaultHTTPDeadlineMapsTo504(t *testing.T) {
	s, db, _, qpts := faultedShardedServer(t, 2, shard.Fault{Hang: true})
	db.SetPolicy(shard.Policy{ShardTimeout: 50 * time.Millisecond})

	rec := doJSON(t, s, "POST", "/search", SearchRequest{Points: qpts, Eps: 0.3})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-failed search: %d %s, want 504", rec.Code, rec.Body)
	}
}

// TestFaultHTTPCompleteResponseNotFlagged: a fully answered sharded query
// must not carry the partial flag but still lists every shard.
func TestFaultHTTPCompleteResponseNotFlagged(t *testing.T) {
	s, db, _, qpts := faultedShardedServer(t, 0) // empty script: pass-through
	db.SetPolicy(shard.Policy{AllowPartial: true})

	rec := doJSON(t, s, "POST", "/search", SearchRequest{Points: qpts, Eps: 0.3})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	decodeBody(t, rec, &resp)
	if resp.Partial {
		t.Fatal("complete answer flagged partial")
	}
	if len(resp.ShardsAnswered) != 4 {
		t.Fatalf("shardsAnswered = %v, want all 4 shards", resp.ShardsAnswered)
	}
}

// TestFaultHTTPMetricsExposeHedges: a won hedge shows up on GET /metrics
// as mdseq_shard_hedges_won_total — the operator-visible acceptance
// signal for hedging.
func TestFaultHTTPMetricsExposeHedges(t *testing.T) {
	s, db, _, qpts := faultedShardedServer(t, 3, shard.Fault{Hang: true}, shard.Fault{})
	db.SetPolicy(shard.Policy{ShardTimeout: 10 * time.Second, HedgeAfter: 10 * time.Millisecond})

	rec := doJSON(t, s, "POST", "/search", SearchRequest{Points: qpts, Eps: 0.3})
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged search: %d %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	decodeBody(t, rec, &resp)
	if resp.Partial {
		t.Fatal("hedged search must answer completely")
	}

	mrec := doJSON(t, s, "GET", "/metrics", nil)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mrec.Code)
	}
	body := mrec.Body.String()
	if !strings.Contains(body, "mdseq_shard_hedges_won_total 1") {
		t.Fatalf("/metrics missing mdseq_shard_hedges_won_total 1:\n%s",
			grepLines(body, "hedges"))
	}
	if !strings.Contains(body, "mdseq_shard_hedges_total 1") {
		t.Fatalf("/metrics missing mdseq_shard_hedges_total 1:\n%s",
			grepLines(body, "hedges"))
	}
}

// grepLines returns the lines of s containing substr, for focused
// failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
