package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's identity and timing record: a process-unique
// request ID plus named spans (the three search phases, handler sections,
// anything worth attributing time to), each optionally annotated with
// typed attributes and nested under a parent span so a sharded search
// renders as a tree. It travels through the handler stack via
// context.Context and is cheap enough to allocate per request. All
// methods are safe for concurrent use and safe on a nil receiver, so
// instrumented code never has to check whether tracing is wired.
type Trace struct {
	ID    string // request ID, echoed to clients in X-Request-ID
	start time.Time

	mu     sync.Mutex
	spans  []Span
	attrs  []Attr // trace-level attributes (the wide-event payload)
	nextID int    // last span ID handed out
	errMsg string // non-empty marks the trace errored
	// ended marks a trace End froze: its duration is dur from then on, and
	// what is recorded after is dropped, so a retained trace reads the same
	// whenever it is snapshotted.
	ended bool
	dur   time.Duration
}

// Span is one named timed section of a request.
type Span struct {
	// ID is the span's identity within its trace (1-based; 0 is never a
	// span ID, it denotes "no parent").
	ID int
	// Parent is the ID of the enclosing span, or 0 for a root span.
	Parent int
	// Name is the span label, e.g. "filter" or "shard".
	Name string
	// Start is the span's offset from trace start.
	Start time.Duration
	// Dur is the elapsed time inside the span.
	Dur time.Duration
	// Attrs are the span's typed annotations (candidate counts, pruning
	// ratios, shard ids, ...).
	Attrs []Attr
}

// --- typed attributes ---------------------------------------------------

// attrKind discriminates an Attr's payload.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed key/value annotation on a span or trace. Construct
// with Str, Int, Int64, Float, or Bool.
type Attr struct {
	// Key is the attribute name, e.g. "candidates_out".
	Key string

	kind attrKind
	s    string
	i    int64
	f    float64
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: attrString, s: v} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: attrInt, i: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.i = 1
	}
	return a
}

// Value returns the attribute's payload as its natural Go type (string,
// int64, float64, or bool) — the form it takes in JSON.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.i != 0
	default:
		return a.s
	}
}

// String renders the attribute as "key=value".
func (a Attr) String() string {
	switch a.kind {
	case attrInt:
		return a.Key + "=" + strconv.FormatInt(a.i, 10)
	case attrFloat:
		return a.Key + "=" + strconv.FormatFloat(a.f, 'g', 4, 64)
	case attrBool:
		if a.i != 0 {
			return a.Key + "=true"
		}
		return a.Key + "=false"
	default:
		return a.Key + "=" + a.s
	}
}

// slogAttr renders the attribute for structured logging.
func (a Attr) slogAttr() slog.Attr {
	switch a.kind {
	case attrInt:
		return slog.Int64(a.Key, a.i)
	case attrFloat:
		return slog.Float64(a.Key, a.f)
	case attrBool:
		return slog.Bool(a.Key, a.i != 0)
	default:
		return slog.String(a.Key, a.s)
	}
}

// attrMap converts an attribute list to the JSON object form.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// --- identity -----------------------------------------------------------

// traceIDs seeds request-ID generation: a random per-process prefix plus
// a monotonic counter. IDs are unique within and (with high probability)
// across processes without paying for crypto/rand on every request.
var (
	tracePrefix = func() string {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], rand.Uint32())
		return hex.EncodeToString(b[:])
	}()
	traceSeq atomic.Uint64
)

// NewTrace starts a trace with a fresh request ID.
func NewTrace() *Trace {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], traceSeq.Add(1))
	return &Trace{ID: tracePrefix + "-" + hex.EncodeToString(b[2:]), start: time.Now()}
}

// NewTraceWithID starts a trace under a caller-supplied request ID — the
// server uses it to honor a valid client X-Request-ID so traces correlate
// across services. The caller is responsible for validation (see
// ValidRequestID).
func NewTraceWithID(id string) *Trace {
	return &Trace{ID: id, start: time.Now()}
}

// maxRequestIDLen bounds a client-supplied X-Request-ID.
const maxRequestIDLen = 64

// ValidRequestID reports whether a client-supplied request ID is
// acceptable: 1–64 characters from [A-Za-z0-9._-]. Anything else is
// rejected and a fresh ID generated, so a hostile header can never smuggle
// log-corrupting bytes into the request ID.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Age returns the time since the trace started.
func (t *Trace) Age() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// --- recording ----------------------------------------------------------

// newSpanID hands out the next span ID under t.mu.
func (t *Trace) newSpanIDLocked() int {
	t.nextID++
	return t.nextID
}

// StartSpan opens a named root span and returns the function that closes
// it.
//
//	done := tr.StartSpan("refine")
//	defer done()
//
// For nested spans threaded through a context, use the package-level
// StartSpan.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	s0 := time.Since(t.start)
	return func() {
		d := time.Since(t.start) - s0
		t.mu.Lock()
		if !t.ended {
			t.spans = append(t.spans, Span{ID: t.newSpanIDLocked(), Name: name, Start: s0, Dur: d})
		}
		t.mu.Unlock()
	}
}

// RecordSpan records an already-measured span of duration d ending now,
// as a child of parent (0 = root), with optional attributes. It is the
// post-hoc form instrumented code uses when the duration was measured
// anyway (phase timings): one lock + append when a trace is present,
// nothing otherwise.
func (t *Trace) RecordSpan(parent int, name string, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	end := time.Since(t.start)
	start := end - d
	if start < 0 {
		start = 0
	}
	t.mu.Lock()
	if !t.ended {
		t.spans = append(t.spans, Span{ID: t.newSpanIDLocked(), Parent: parent, Name: name, Start: start, Dur: d, Attrs: attrs})
	}
	t.mu.Unlock()
}

// SetAttrs appends trace-level attributes — the canonical wide-event
// payload (route, thresholds, candidate counts, cache tier, ...).
func (t *Trace) SetAttrs(attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.ended {
		t.attrs = append(t.attrs, attrs...)
	}
	t.mu.Unlock()
}

// Attrs returns a snapshot of the trace-level attributes.
func (t *Trace) Attrs() []Attr {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Attr(nil), t.attrs...)
}

// MarkError marks the trace errored. The recorder retains every errored
// trace regardless of latency.
func (t *Trace) MarkError(msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.errMsg == "" && !t.ended {
		t.errMsg = msg
	}
	t.mu.Unlock()
}

// end freezes the trace, once: its duration stops at now, and spans,
// attributes and errors recorded after are dropped. It reports the frozen
// duration and whether the trace errored.
func (t *Trace) end() (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.ended {
		t.ended, t.dur = true, time.Since(t.start)
	}
	return t.dur, t.errMsg != ""
}

// Err returns the error message set by MarkError, or "".
func (t *Trace) Err() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errMsg
}

// Spans returns a snapshot of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WideAttrs renders the canonical wide-event payload for the per-request
// log line: every trace-level attribute, the error marker, and one
// duration attribute per span name — the longest span of that name, so a
// sharded request's "shard" key is its straggler, which bounds the
// scatter, and every key is written once. The request ID is omitted — the
// middleware logs it alongside.
func (t *Trace) WideAttrs() []slog.Attr {
	if t == nil {
		return nil
	}
	var out []slog.Attr
	t.eachWide(func(a slog.Attr) { out = append(out, a) })
	return out
}

// eachWide hands emit WideAttrs' attributes in order, in one pass under the
// trace's lock.
func (t *Trace) eachWide(emit func(slog.Attr)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.attrs {
		emit(a.slogAttr())
	}
	if t.errMsg != "" {
		emit(slog.String("error", t.errMsg))
	}
	for i, s := range t.spans {
		d, first := s.Dur, true
		for j, o := range t.spans {
			if o.Name != s.Name {
				continue
			}
			if j < i {
				first = false
				break
			}
			d = max(d, o.Dur)
		}
		if first {
			emit(slog.Float64("span."+s.Name+".ms", float64(d)/float64(time.Millisecond)))
		}
	}
}

// --- snapshots ----------------------------------------------------------

// SpanSnapshot is the immutable, JSON-ready form of one recorded span.
type SpanSnapshot struct {
	// ID is the span's identity within the trace.
	ID int `json:"id"`
	// Parent is the enclosing span's ID (0 = root), omitted at the root.
	Parent int `json:"parent,omitempty"`
	// Name is the span label.
	Name string `json:"name"`
	// StartNS is the span's offset from trace start, in nanoseconds.
	StartNS int64 `json:"startNs"`
	// DurNS is the span's duration in nanoseconds.
	DurNS int64 `json:"durNs"`
	// Attrs are the span's annotations keyed by attribute name.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// TraceSnapshot is the immutable record of a completed trace, as retained
// by the Recorder and served by /debug/tracez.
type TraceSnapshot struct {
	// ID is the request ID.
	ID string `json:"id"`
	// Start is the trace's wall-clock start time.
	Start time.Time `json:"start"`
	// DurNS is the trace's end-to-end duration in nanoseconds.
	DurNS int64 `json:"durNs"`
	// Status is "ok" or "error".
	Status string `json:"status"`
	// Err is the MarkError message for errored traces.
	Err string `json:"error,omitempty"`
	// Attrs are the trace-level (wide-event) attributes.
	Attrs map[string]any `json:"attrs,omitempty"`
	// Spans are the recorded spans in recording order.
	Spans []SpanSnapshot `json:"spans,omitempty"`
}

// Dur returns the snapshot's duration.
func (s *TraceSnapshot) Dur() time.Duration { return time.Duration(s.DurNS) }

// Snapshot copies the trace's state out, ending now — or when End froze
// it. Status is "error" when MarkError was called, else "ok".
func (t *Trace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	dur := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ended {
		dur = t.dur
	}
	snap := &TraceSnapshot{
		ID:     t.ID,
		Start:  t.start,
		DurNS:  int64(dur),
		Status: "ok",
		Err:    t.errMsg,
		Attrs:  attrMap(t.attrs),
	}
	if t.errMsg != "" {
		snap.Status = "error"
	}
	for _, s := range t.spans {
		snap.Spans = append(snap.Spans, SpanSnapshot{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			StartNS: int64(s.Start), DurNS: int64(s.Dur), Attrs: attrMap(s.Attrs),
		})
	}
	return snap
}

// WriteTree renders the snapshot as an indented human-readable span tree:
// one line per span with its offset, duration, and attributes, children
// nested under parents and ordered by start offset.
func (s *TraceSnapshot) WriteTree(w io.Writer) {
	fmt.Fprintf(w, "trace %s  %s  status=%s", s.ID, fmtDur(time.Duration(s.DurNS)), s.Status)
	if s.Err != "" {
		fmt.Fprintf(w, "  error=%q", s.Err)
	}
	writeAttrMap(w, s.Attrs)
	fmt.Fprintln(w)
	children := make(map[int][]SpanSnapshot)
	for _, sp := range s.Spans {
		parent := sp.Parent
		if _, ok := spanByID(s.Spans, parent); parent != 0 && !ok {
			parent = 0 // orphan (parent dropped); render at the root
		}
		children[parent] = append(children[parent], sp)
	}
	for id := range children {
		c := children[id]
		sort.Slice(c, func(i, j int) bool { return c[i].StartNS < c[j].StartNS })
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, sp := range children[parent] {
			fmt.Fprintf(w, "%*s%s  @%s +%s", 2*depth+2, "", sp.Name,
				fmtDur(time.Duration(sp.StartNS)), fmtDur(time.Duration(sp.DurNS)))
			writeAttrMap(w, sp.Attrs)
			fmt.Fprintln(w)
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
}

// spanByID finds a span snapshot by ID.
func spanByID(spans []SpanSnapshot, id int) (SpanSnapshot, bool) {
	for _, sp := range spans {
		if sp.ID == id {
			return sp, true
		}
	}
	return SpanSnapshot{}, false
}

// writeAttrMap renders attributes as "  k=v" pairs in key order.
func writeAttrMap(w io.Writer, attrs map[string]any) {
	if len(attrs) == 0 {
		return
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%v", k, attrs[k])
	}
}

// fmtDur renders a duration with µs precision below 1ms and ms precision
// above, keeping tree lines compact.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// --- context ------------------------------------------------------------

// traceKey is the context key Trace travels under; spanKey carries the
// active span's ID for parent/child nesting.
type (
	traceKey struct{}
	spanKey  struct{}
)

// WithTrace returns a context carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. The nil result is
// safe to use directly: every Trace method no-ops on nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SpanFromContext returns the ID of the span active in ctx, or 0 — the
// parent under which instrumented code should record its spans.
func SpanFromContext(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// StartSpan opens a span as a child of whatever span is active in ctx and
// returns a derived context carrying the new span (so further spans nest
// under it) plus the closer that records it with optional attributes.
// Without a trace in ctx both returns are no-ops and ctx comes back
// unchanged, so the uninstrumented path pays one context lookup and
// allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, func(attrs ...Attr)) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, noopEnd
	}
	parent := SpanFromContext(ctx)
	t.mu.Lock()
	id := t.newSpanIDLocked()
	t.mu.Unlock()
	s0 := time.Since(t.start)
	return context.WithValue(ctx, spanKey{}, id), func(attrs ...Attr) {
		d := time.Since(t.start) - s0
		t.mu.Lock()
		if !t.ended {
			t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: s0, Dur: d, Attrs: attrs})
		}
		t.mu.Unlock()
	}
}

// noopEnd is the shared closer for unfollowed StartSpan calls, so the
// traceless path allocates no closure.
func noopEnd(...Attr) {}
