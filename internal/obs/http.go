package obs

import (
	"encoding/json"
	"log/slog"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MetricsHandler serves reg in Prometheus text exposition format — mount
// it at GET /metrics.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
}

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Middleware instruments an HTTP handler: every request gets a Trace (and
// an X-Request-ID response header) in its context, a canonical wide-event
// structured log line (request ID, method, path, status, bytes, duration,
// plus every trace attribute and span timing the handlers recorded), and,
// when reg is non-nil, http request counters and a latency histogram
// labeled by method and status code. A client-supplied X-Request-ID is
// honored when it passes ValidRequestID, so traces correlate across
// services; invalid or absent IDs fall back to a generated one. rec, when
// non-nil, receives every request into the flight recorder (in-flight
// table + retained completions). logger may be nil to disable logging;
// reg may be nil to disable metrics; rec may be nil to disable recording.
//
// A request is accounted for once: the recorder keeps the ended trace
// itself, the two instruments of a (method, code) are resolved through the
// registry on its first request only (httpInstruments), and the wide
// event is one record built in one pass over the trace and handed to the
// logger's handler directly, without the caller lookup a logging call
// makes for a source position the JSON line does not print.
func Middleware(reg *Registry, logger *slog.Logger, rec *Recorder, next http.Handler) http.Handler {
	var inflight *Gauge
	var inst *httpInstruments
	if reg != nil {
		inflight = reg.Gauge("mdseq_http_inflight_requests",
			"HTTP requests currently being served.")
		inst = &httpInstruments{reg: reg}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var tr *Trace
		if id := r.Header.Get("X-Request-ID"); ValidRequestID(id) {
			tr = NewTraceWithID(id)
		} else {
			tr = NewTrace()
		}
		w.Header().Set("X-Request-ID", tr.ID)
		sw := &statusWriter{ResponseWriter: w}
		if inflight != nil {
			inflight.Add(1)
			defer inflight.Add(-1)
		}
		tr.SetAttrs(Str("method", r.Method), Str("path", r.URL.Path))
		rec.Start(tr)
		next.ServeHTTP(sw, r.WithContext(WithTrace(r.Context(), tr)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if sw.status >= 400 && tr.Err() == "" {
			tr.MarkError(http.StatusText(sw.status))
		}
		dur := tr.Age()
		rec.End(tr)
		if inst != nil {
			c, h := inst.get(r.Method, sw.status)
			c.Inc()
			h.ObserveDuration(dur)
		}
		if logger != nil && logger.Enabled(r.Context(), slog.LevelInfo) {
			// One canonical wide-event line per request: identity and
			// HTTP outcome up front, then every trace attribute and span
			// timing the handlers recorded.
			line := slog.NewRecord(time.Now(), slog.LevelInfo, "request", 0)
			line.AddAttrs(
				slog.String("requestID", tr.ID),
				slog.Int("status", sw.status),
				slog.Int("bytes", sw.bytes),
				slog.Duration("duration", dur),
			)
			tr.eachWide(func(a slog.Attr) { line.AddAttrs(a) })
			logger.Handler().Handle(r.Context(), line)
		}
	})
}

// httpInstruments caches the middleware's two instruments per (method,
// status code): the registry resolves a pair once — rendering its labels,
// two map lookups under the registry's lock — and every later request of
// the pair reads it from an immutable map, replaced whole when a pair is
// added. At most maxHTTPInstruments pairs are cached; a request past them
// resolves through the registry as before.
type httpInstruments struct {
	reg   *Registry
	mu    sync.Mutex // serializes additions
	pairs atomic.Pointer[map[httpPair]httpPairInstruments]
}

type httpPair struct {
	method string
	code   int
}

type httpPairInstruments struct {
	requests *Counter
	latency  *Histogram
}

// maxHTTPInstruments bounds the cache: methods are client-chosen strings.
const maxHTTPInstruments = 64

// get returns the request counter and latency histogram of (method, code).
func (in *httpInstruments) get(method string, code int) (*Counter, *Histogram) {
	key := httpPair{method, code}
	if m := in.pairs.Load(); m != nil {
		if p, ok := (*m)[key]; ok {
			return p.requests, p.latency
		}
	}
	labels := []Label{ // in key order, which renderLabels need not sort
		{Key: "code", Value: strconv.Itoa(code)},
		{Key: "method", Value: method},
	}
	p := httpPairInstruments{
		requests: in.reg.Counter("mdseq_http_requests_total",
			"HTTP requests served, by method and status code.", labels...),
		latency: in.reg.Histogram("mdseq_http_request_seconds",
			"HTTP request latency in seconds, by method and status code.", nil, labels...),
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	old := in.pairs.Load()
	if old != nil && len(*old) >= maxHTTPInstruments {
		return p.requests, p.latency
	}
	next := map[httpPair]httpPairInstruments{}
	if old != nil {
		next = maps.Clone(*old)
	}
	next[key] = p
	in.pairs.Store(&next)
	return p.requests, p.latency
}

// TracezHandler serves the recorder's retained traces — mount it at
// GET /debug/tracez. The default response is JSON (RecorderDump);
// ?format=text renders each retained trace as an indented span tree.
func TracezHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dump := rec.Dump()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeDumpSection(w, "recent", dump.Recent)
			writeDumpSection(w, "slowest", dump.Slowest)
			writeDumpSection(w, "errored", dump.Errored)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(dump)
	})
}

// writeDumpSection renders one /debug/tracez text section.
func writeDumpSection(w http.ResponseWriter, title string, traces []*TraceSnapshot) {
	w.Write([]byte("== " + title + " (" + strconv.Itoa(len(traces)) + ") ==\n"))
	for _, t := range traces {
		t.WriteTree(w)
	}
	w.Write([]byte("\n"))
}

// requestzEntry is one /debug/requestz row: an ActiveRequest with the age
// rendered human-readably alongside the raw nanoseconds.
type requestzEntry struct {
	ActiveRequest
	// Age is AgeNS rendered as a Go duration string.
	Age string `json:"age"`
}

// RequestzHandler serves the recorder's in-flight request table — mount
// it at GET /debug/requestz. Rows are ordered oldest first, so a hung
// request is at the top.
func RequestzHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		active := rec.Active()
		rows := make([]requestzEntry, len(active))
		for i, a := range active {
			rows[i] = requestzEntry{ActiveRequest: a, Age: time.Duration(a.AgeNS).String()}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			// Active is the in-flight table, oldest first.
			Active []requestzEntry `json:"active"`
		}{rows})
	})
}
