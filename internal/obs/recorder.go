package obs

import (
	"sort"
	"sync"
	"time"
)

// RecorderConfig sizes a Recorder's retention.
type RecorderConfig struct {
	// PerBucket is how many of the slowest traces to keep per latency
	// bucket (LatencyBuckets boundaries). 0 means the default (4).
	PerBucket int
	// Errors is the capacity of the errored ring. 0 means the
	// default (64).
	Errors int
	// Recent is the capacity of the most-recently-completed ring. 0 means
	// the default (16).
	Recent int
}

// Default recorder retention sizes.
const (
	defaultPerBucket = 4
	defaultErrors    = 64
	defaultRecent    = 16
)

// Recorder is the flight recorder: it tracks in-flight traces and retains
// a bounded sample of completed ones — the N slowest per latency bucket
// (so slow outliers survive even under high throughput of fast requests,
// OpenCensus-/tracez/-style), every errored trace up to a ring
// limit, and a short ring of the most recent completions for "what just
// happened" debugging. All methods are safe for concurrent use and no-op
// on a nil receiver, so call sites need no wiring checks.
type Recorder struct {
	perBucket int

	mu      sync.Mutex
	active  map[*Trace]struct{}
	buckets [][]*TraceSnapshot // len(LatencyBuckets)+1; each sorted slowest-first
	errored ring
	recent  ring
}

// ring is a fixed-capacity overwrite-oldest buffer of trace snapshots.
type ring struct {
	buf  []*TraceSnapshot
	next int
	full bool
}

func (r *ring) push(s *TraceSnapshot) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the ring newest-first.
func (r *ring) snapshot() []*TraceSnapshot {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*TraceSnapshot, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// NewRecorder builds a Recorder with the given retention sizes (zero
// fields take defaults).
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.PerBucket <= 0 {
		cfg.PerBucket = defaultPerBucket
	}
	if cfg.Errors <= 0 {
		cfg.Errors = defaultErrors
	}
	if cfg.Recent <= 0 {
		cfg.Recent = defaultRecent
	}
	return &Recorder{
		perBucket: cfg.PerBucket,
		active:    make(map[*Trace]struct{}),
		buckets:   make([][]*TraceSnapshot, len(LatencyBuckets)+1),
		errored:   ring{buf: make([]*TraceSnapshot, cfg.Errors)},
		recent:    ring{buf: make([]*TraceSnapshot, cfg.Recent)},
	}
}

// Start registers a trace as in-flight.
func (r *Recorder) Start(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.active[t] = struct{}{}
	r.mu.Unlock()
}

// End removes a trace from the in-flight table, snapshots it, and feeds
// the snapshot into retention. It returns the snapshot so the middleware
// can reuse it for the wide-event log line.
func (r *Recorder) End(t *Trace) *TraceSnapshot {
	if r == nil || t == nil {
		return t.Snapshot()
	}
	snap := t.Snapshot()
	r.mu.Lock()
	delete(r.active, t)
	r.recent.push(snap)
	if snap.Status != "ok" {
		r.errored.push(snap)
	}
	b := latencyBucketIndex(snap.Dur())
	bucket := r.buckets[b]
	switch {
	case len(bucket) < r.perBucket:
		bucket = append(bucket, snap)
		sortBucket(bucket)
		r.buckets[b] = bucket
	case snap.DurNS > bucket[len(bucket)-1].DurNS:
		bucket[len(bucket)-1] = snap
		sortBucket(bucket)
	}
	r.mu.Unlock()
	return snap
}

// sortBucket keeps a retention bucket ordered slowest-first.
func sortBucket(b []*TraceSnapshot) {
	sort.Slice(b, func(i, j int) bool { return b[i].DurNS > b[j].DurNS })
}

// latencyBucketIndex maps a duration onto LatencyBuckets: the index of
// the first boundary ≥ d, or len(LatencyBuckets) for the overflow bucket.
func latencyBucketIndex(d time.Duration) int {
	return sort.SearchFloat64s(LatencyBuckets, d.Seconds())
}

// LatencyBucketLabel renders the latency bucket a duration falls into in
// Prometheus `le` notation (e.g. "0.01"), "+Inf" for the overflow bucket.
// The slow-query log uses it to annotate, exemplar-style, which histogram
// bucket a logged trace ID belongs to.
func LatencyBucketLabel(d time.Duration) string {
	i := latencyBucketIndex(d)
	if i >= len(LatencyBuckets) {
		return "+Inf"
	}
	return formatFloat(LatencyBuckets[i])
}

// ActiveRequest describes one in-flight request for /debug/requestz.
type ActiveRequest struct {
	// ID is the request ID.
	ID string `json:"id"`
	// AgeNS is how long the request has been running, in nanoseconds.
	AgeNS int64 `json:"ageNs"`
	// Attrs are the trace-level attributes set so far.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Active returns the in-flight request table, oldest first.
func (r *Recorder) Active() []ActiveRequest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traces := make([]*Trace, 0, len(r.active))
	for t := range r.active {
		traces = append(traces, t)
	}
	r.mu.Unlock()
	out := make([]ActiveRequest, 0, len(traces))
	for _, t := range traces {
		out = append(out, ActiveRequest{ID: t.ID, AgeNS: int64(t.Age()), Attrs: attrMap(t.Attrs())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AgeNS > out[j].AgeNS })
	return out
}

// RecorderDump is the /debug/tracez payload: the retained trace sample.
type RecorderDump struct {
	// Recent holds the most recently completed traces, newest first.
	Recent []*TraceSnapshot `json:"recent"`
	// Slowest holds the per-latency-bucket slowest survivors, slowest
	// first.
	Slowest []*TraceSnapshot `json:"slowest"`
	// Errored holds retained errored traces, newest first.
	Errored []*TraceSnapshot `json:"errored"`
}

// Dump snapshots the recorder's retained traces.
func (r *Recorder) Dump() RecorderDump {
	if r == nil {
		return RecorderDump{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var slow []*TraceSnapshot
	for _, b := range r.buckets {
		slow = append(slow, b...)
	}
	sortBucket(slow)
	return RecorderDump{
		Recent:  r.recent.snapshot(),
		Slowest: slow,
		Errored: r.errored.snapshot(),
	}
}
