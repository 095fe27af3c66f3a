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
// happened" debugging. It retains the ended traces themselves, frozen by
// End, and snapshots them only when Dump is asked: a request pays for its
// trace once, not for a copy nobody may read. All methods are safe for
// concurrent use and no-op on a nil receiver, so call sites need no wiring
// checks.
type Recorder struct {
	perBucket int

	mu      sync.Mutex
	active  map[*Trace]struct{}
	buckets [][]*Trace // len(LatencyBuckets)+1; each sorted slowest-first
	errored ring
	recent  ring
}

// ring is a fixed-capacity overwrite-oldest buffer of ended traces.
type ring struct {
	buf  []*Trace
	next int
	full bool
}

func (r *ring) push(s *Trace) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// newestFirst returns the ring's traces newest-first.
func (r *ring) newestFirst() []*Trace {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*Trace, 0, n)
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
		buckets:   make([][]*Trace, len(LatencyBuckets)+1),
		errored:   ring{buf: make([]*Trace, cfg.Errors)},
		recent:    ring{buf: make([]*Trace, cfg.Recent)},
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

// End ends a trace — it freezes it (Trace.end): its duration and status
// are fixed, and whatever is recorded after is dropped — removes it from
// the in-flight table and feeds it into retention. On a nil recorder it
// still freezes the trace.
func (r *Recorder) End(t *Trace) {
	if t == nil {
		return
	}
	dur, errored := t.end()
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, t)
	r.recent.push(t)
	if errored {
		r.errored.push(t)
	}
	b := latencyBucketIndex(dur)
	bucket := r.buckets[b]
	switch {
	case len(bucket) < r.perBucket:
		bucket = append(bucket, t)
		sortBucket(bucket)
		r.buckets[b] = bucket
	case dur > bucket[len(bucket)-1].dur:
		bucket[len(bucket)-1] = t
		sortBucket(bucket)
	}
}

// sortBucket keeps ended traces ordered slowest-first.
func sortBucket(b []*Trace) {
	sort.Slice(b, func(i, j int) bool { return b[i].dur > b[j].dur })
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

// Dump snapshots the recorder's retained traces. A trace retained in
// several lists is snapshotted once and shared.
func (r *Recorder) Dump() RecorderDump {
	if r == nil {
		return RecorderDump{}
	}
	r.mu.Lock()
	var slow []*Trace
	for _, b := range r.buckets {
		slow = append(slow, b...)
	}
	recent, errored := r.recent.newestFirst(), r.errored.newestFirst()
	r.mu.Unlock()
	sortBucket(slow)
	snaps := make(map[*Trace]*TraceSnapshot)
	snapshot := func(ts []*Trace) []*TraceSnapshot {
		if ts == nil {
			return nil
		}
		out := make([]*TraceSnapshot, len(ts))
		for i, t := range ts {
			if out[i] = snaps[t]; out[i] == nil {
				out[i] = t.Snapshot()
				snaps[t] = out[i]
			}
		}
		return out
	}
	return RecorderDump{
		Recent:  snapshot(recent),
		Slowest: snapshot(slow),
		Errored: snapshot(errored),
	}
}
