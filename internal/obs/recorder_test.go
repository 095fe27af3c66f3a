package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// endedTrace builds a trace that appears to have started d ago, so
// Recorder.End buckets it deterministically.
func endedTrace(d time.Duration) *Trace {
	tr := NewTrace()
	tr.start = time.Now().Add(-d)
	return tr
}

func TestRecorderRetainsSlowestPerBucket(t *testing.T) {
	rec := NewRecorder(RecorderConfig{PerBucket: 2})
	// All five land in the (0.025, 0.05] latency bucket; only the two
	// slowest may survive.
	durs := []time.Duration{26, 30, 28, 34, 32} // milliseconds
	for _, ms := range durs {
		tr := endedTrace(ms * time.Millisecond)
		rec.Start(tr)
		rec.End(tr)
	}
	dump := rec.Dump()
	if len(dump.Slowest) != 2 {
		t.Fatalf("Slowest retained %d traces, want 2", len(dump.Slowest))
	}
	if dump.Slowest[0].DurNS < dump.Slowest[1].DurNS {
		t.Fatalf("Slowest not ordered slowest-first: %d < %d", dump.Slowest[0].DurNS, dump.Slowest[1].DurNS)
	}
	// The survivors must be the 34ms and 32ms traces (timer skew is
	// additive and identical in ordering, so relative ranks hold).
	if got := dump.Slowest[0].Dur(); got < 33*time.Millisecond {
		t.Fatalf("slowest survivor %v, want the ~34ms trace", got)
	}
	if got := dump.Slowest[1].Dur(); got < 31*time.Millisecond || got > 34*time.Millisecond {
		t.Fatalf("second survivor %v, want the ~32ms trace", got)
	}
}

func TestRecorderSlowOutliersSurviveFastFlood(t *testing.T) {
	rec := NewRecorder(RecorderConfig{PerBucket: 1, Recent: 4})
	slow := endedTrace(40 * time.Millisecond)
	rec.Start(slow)
	rec.End(slow)
	// A flood of fast requests lands in a different latency bucket, so
	// the slow outlier is not displaced (the point of per-bucket
	// retention) even though the recent ring forgets it.
	for i := 0; i < 100; i++ {
		tr := endedTrace(100 * time.Microsecond)
		rec.Start(tr)
		rec.End(tr)
	}
	dump := rec.Dump()
	found := false
	for _, s := range dump.Slowest {
		if s.ID == slow.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("slow outlier evicted by fast-request flood; per-bucket retention broken")
	}
	for _, s := range dump.Recent {
		if s.ID == slow.ID {
			t.Fatal("recent ring should have forgotten the slow trace after 100 completions")
		}
	}
}

func TestRecorderErroredRing(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Errors: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		tr := NewTrace()
		tr.MarkError(fmt.Sprintf("boom %d", i))
		rec.Start(tr)
		rec.End(tr)
		ids = append(ids, tr.ID)
	}
	ok := NewTrace()
	rec.Start(ok)
	rec.End(ok)

	dump := rec.Dump()
	if len(dump.Errored) != 2 {
		t.Fatalf("errored ring holds %d, want capacity 2", len(dump.Errored))
	}
	// Newest first: the last two errors; the oldest was overwritten, and
	// the ok trace is not retained here.
	if dump.Errored[0].ID != ids[2] || dump.Errored[0].Err != "boom 2" {
		t.Fatalf("Errored[0] = %s err=%q, want %s / boom 2", dump.Errored[0].ID, dump.Errored[0].Err, ids[2])
	}
	if dump.Errored[1].ID != ids[1] || dump.Errored[1].Err != "boom 1" {
		t.Fatalf("Errored[1] = %s err=%q, want %s / boom 1", dump.Errored[1].ID, dump.Errored[1].Err, ids[1])
	}
}

func TestRecorderRecentNewestFirst(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Recent: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		tr := NewTrace()
		rec.Start(tr)
		rec.End(tr)
		ids = append(ids, tr.ID)
	}
	dump := rec.Dump()
	if len(dump.Recent) != 2 || dump.Recent[0].ID != ids[2] || dump.Recent[1].ID != ids[1] {
		t.Fatalf("Recent = %+v, want [%s %s]", dump.Recent, ids[2], ids[1])
	}
}

func TestRecorderActiveTable(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	old := endedTrace(time.Second)
	old.SetAttrs(Str("path", "/search"))
	young := endedTrace(time.Millisecond)
	rec.Start(old)
	rec.Start(young)

	active := rec.Active()
	if len(active) != 2 {
		t.Fatalf("Active() = %d rows, want 2", len(active))
	}
	if active[0].ID != old.ID {
		t.Fatalf("Active()[0] = %s, want oldest request %s first", active[0].ID, old.ID)
	}
	if active[0].Attrs["path"] != "/search" {
		t.Fatalf("Active()[0].Attrs = %v, want path=/search", active[0].Attrs)
	}
	if active[0].AgeNS < int64(time.Second) {
		t.Fatalf("Active()[0].AgeNS = %d, want >= 1s", active[0].AgeNS)
	}

	rec.End(old)
	rec.End(young)
	if got := rec.Active(); len(got) != 0 {
		t.Fatalf("Active() after End = %d rows, want 0", len(got))
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Start(NewTrace())
	tr := NewTrace()
	rec.End(tr)
	tr.RecordSpan(0, "late", time.Millisecond)
	if snap := tr.Snapshot(); len(snap.Spans) != 0 {
		t.Fatal("nil recorder End must still end the trace: a span recorded after it was kept")
	}
	if got := rec.Active(); got != nil {
		t.Fatalf("nil recorder Active() = %v, want nil", got)
	}
	dump := rec.Dump()
	if len(dump.Recent)+len(dump.Slowest)+len(dump.Errored) != 0 {
		t.Fatal("nil recorder Dump() must be empty")
	}
}

func TestLatencyBucketLabel(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{3 * time.Millisecond, "0.005"},
		{10 * time.Millisecond, "0.01"},
		{5 * time.Microsecond, "1e-05"},
		{20 * time.Second, "+Inf"},
	}
	for _, c := range cases {
		if got := LatencyBucketLabel(c.d); got != c.want {
			t.Errorf("LatencyBucketLabel(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestRecorderConcurrentSoak hammers one recorder from writer goroutines
// while readers pull /debug/tracez (JSON and text) and /debug/requestz —
// the ISSUE's retention-under-concurrency acceptance gate; run with
// -race.
func TestRecorderConcurrentSoak(t *testing.T) {
	rec := NewRecorder(RecorderConfig{PerBucket: 2, Errors: 8, Recent: 8})
	const writers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr := NewTrace()
				rec.Start(tr)
				ctx, end := StartSpan(WithTrace(context.Background(), tr), "scatter")
				_, endChild := StartSpan(ctx, "shard")
				endChild(Int("shard", w))
				end(Int("shards", writers))
				if i%3 == 0 {
					tr.MarkError("injected")
				}
				rec.End(tr)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			tracez := TracezHandler(rec)
			requestz := RequestzHandler(rec)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rw := httptest.NewRecorder()
				switch r % 3 {
				case 0:
					tracez.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/tracez", nil))
				case 1:
					tracez.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/tracez?format=text", nil))
				default:
					requestz.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/requestz", nil))
				}
				if rw.Code != 200 {
					t.Errorf("debug handler status %d", rw.Code)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Final state: errored traces retained, every retained status
	// consistent, and the JSON endpoint still round-trips.
	dump := rec.Dump()
	if len(dump.Errored) == 0 {
		t.Fatal("soak recorded errors but the errored ring is empty")
	}
	for _, s := range dump.Errored {
		if s.Status == "ok" {
			t.Fatalf("errored ring retained an ok trace %s", s.ID)
		}
	}
	if len(dump.Slowest) == 0 {
		t.Fatal("no slowest traces retained after soak")
	}
	for _, s := range dump.Slowest {
		if len(s.Spans) == 0 {
			t.Fatalf("retained trace %s lost its spans", s.ID)
		}
	}
	rw := httptest.NewRecorder()
	TracezHandler(rec).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/tracez", nil))
	var out RecorderDump
	if err := json.Unmarshal(rw.Body.Bytes(), &out); err != nil {
		t.Fatalf("tracez JSON does not round-trip: %v", err)
	}
	rw = httptest.NewRecorder()
	TracezHandler(rec).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/tracez?format=text", nil))
	body := rw.Body.String()
	for _, section := range []string{"== recent", "== slowest", "== errored"} {
		if !strings.Contains(body, section) {
			t.Fatalf("tracez text output missing %q section:\n%s", section, body)
		}
	}
}
