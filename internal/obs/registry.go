package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {Key: "shard", Value: "3"}.
type Label struct {
	Key, Value string // label name and value as rendered in the exposition
}

// Registry holds named metric families and renders them in Prometheus
// text exposition format. Registration (Counter/Gauge/Histogram) takes a
// lock and is meant for wiring time; the returned instruments are stable
// pointers whose operations are lock-free atomics, safe for concurrent
// use on hot paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is all instruments sharing one metric name.
type family struct {
	name, help, typ string // typ: "counter" | "gauge" | "histogram"
	buckets         []float64
	series          map[string]metric // keyed by rendered label string
}

type metric interface {
	write(w io.Writer, name, labels string) error
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the instrument for (name, labels), creating family and
// series as needed. Re-registering the same name with a different type or
// (for histograms) different bucket bounds is a programming error and
// panics, as is a metric name outside the Prometheus charset; help text
// from the first registration wins.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []Label) metric {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if !validMetricName(name) {
			panic(fmt.Sprintf("obs: invalid metric name %q (want [a-zA-Z_:][a-zA-Z0-9_:]*)", name))
		}
		f = &family{name: name, help: help, typ: typ, buckets: slices.Clone(buckets), series: map[string]metric{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	} else if typ == "histogram" && !equalBounds(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q registered with buckets %v, requested with %v", name, f.buckets, buckets))
	}
	m, ok := f.series[ls]
	if !ok {
		switch typ {
		case "counter":
			m = &Counter{}
		case "gauge":
			m = &Gauge{}
		default:
			m = newHistogram(f.buckets)
		}
		f.series[ls] = m
	}
	return m
}

// validMetricName reports whether name matches the Prometheus metric
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches the Prometheus label
// charset [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// equalBounds reports whether two sorted bucket-bound slices are equal.
func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FamilyInfo describes one registered metric family — the shape tooling
// (scripts/checkmetrics) freezes to catch accidental renames.
type FamilyInfo struct {
	// Name is the metric family name.
	Name string
	// Type is "counter", "gauge", or "histogram".
	Type string
	// Help is the family's help text.
	Help string
}

// Families returns the registered families sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{Name: f.name, Type: f.typ, Help: f.help})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter returns the monotonically increasing counter for (name,
// labels), registering it on first use. By convention name should end in
// "_total".
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, "counter", nil, labels).(*Counter)
}

// Gauge returns the settable gauge for (name, labels), registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, "gauge", nil, labels).(*Gauge)
}

// Histogram returns the fixed-bucket histogram for (name, labels),
// registering it on first use. buckets are the upper bounds (ascending,
// +Inf appended implicitly); nil uses LatencyBuckets. All series of one
// family share the bounds of the first registration; re-registering the
// family with different bounds panics — divergent ladders would silently
// mis-bucket whichever caller lost the race.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		buckets = append([]float64(nil), buckets...)
		sort.Float64s(buckets)
	}
	return r.lookup(name, help, "histogram", buckets, labels).(*Histogram)
}

// --- counter ------------------------------------------------------------

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is a count; negative deltas belong on a Gauge).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
	return err
}

// --- gauge --------------------------------------------------------------

// Gauge is a settable float64, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
	return err
}

// --- histogram ----------------------------------------------------------

// LatencyBuckets is the default bucket layout for _seconds histograms:
// 10µs to 10s, roughly log-spaced. Index searches on in-memory corpora
// complete in the microsecond range, so the ladder starts far below
// Prometheus's 5ms default.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets and tracks their sum,
// safe for concurrent use. Bucket counts are stored per-bucket
// (non-cumulative) and accumulated at exposition time.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le-bucket semantics
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the cumulative count at each bound plus +Inf —
// the le="..." series of the exposition format.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) write(w io.Writer, name, labels string) error {
	cum := h.BucketCounts()
	for i, b := range h.bounds {
		if err := writeBucket(w, name, labels, formatFloat(b), cum[i]); err != nil {
			return err
		}
	}
	if err := writeBucket(w, name, labels, "+Inf", cum[len(cum)-1]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// writeBucket emits one le series, splicing the le label into any
// existing label set.
func writeBucket(w io.Writer, name, labels, le string, n uint64) error {
	var ls string
	if labels == "" {
		ls = fmt.Sprintf(`{le=%q}`, le)
	} else {
		ls = fmt.Sprintf(`%s,le=%q}`, strings.TrimSuffix(labels, "}"), le)
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, ls, n)
	return err
}

// --- text exposition ----------------------------------------------------

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// sorted by label string, HELP/TYPE headers once per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]metric, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		r.mu.Unlock()
		for i, m := range series {
			if err := m.write(w, f.name, keys[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderLabels serializes a label set as {k="v",...} with keys sorted, or
// "" for no labels. Label keys are validated against the Prometheus label
// charset (panic on violation) — a key is emitted unquoted, so unlike a
// value it cannot be escaped into validity and a bad one would corrupt
// every line of the family's exposition. Labels passed in key order, with
// values that need no escaping, cost the one allocation of the key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	byKey := func(a, b Label) int { return strings.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(labels, byKey) {
		labels = slices.Clone(labels)
		slices.SortFunc(labels, byKey)
	}
	n := 1
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 4
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q (want [a-zA-Z_][a-zA-Z0-9_]*)", l.Key))
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// The exposition format's escapes for label values and HELP text. Built
// once: a Replacer is safe for concurrent use, and building one per call
// put its construction on every request's path (obs.Middleware resolves
// its counter and histogram through renderLabels).
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatFloat renders a float the way Prometheus clients do: shortest
// representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
