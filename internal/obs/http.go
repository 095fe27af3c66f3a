package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
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
func Middleware(reg *Registry, logger *slog.Logger, rec *Recorder, next http.Handler) http.Handler {
	var inflight *Gauge
	if reg != nil {
		inflight = reg.Gauge("mdseq_http_inflight_requests",
			"HTTP requests currently being served.")
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
		if reg != nil {
			labels := []Label{ // in key order, which renderLabels need not sort
				{Key: "code", Value: strconv.Itoa(sw.status)},
				{Key: "method", Value: r.Method},
			}
			reg.Counter("mdseq_http_requests_total",
				"HTTP requests served, by method and status code.", labels...).Inc()
			reg.Histogram("mdseq_http_request_seconds",
				"HTTP request latency in seconds, by method and status code.", nil, labels...).
				ObserveDuration(dur)
		}
		if logger != nil {
			// One canonical wide-event line per request: identity and
			// HTTP outcome up front, then every trace attribute and span
			// timing the handlers recorded.
			attrs := []slog.Attr{
				slog.String("requestID", tr.ID),
				slog.Int("status", sw.status),
				slog.Int("bytes", sw.bytes),
				slog.Duration("duration", dur),
			}
			attrs = append(attrs, tr.WideAttrs()...)
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
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
