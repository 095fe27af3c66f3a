package obs

import (
	"strings"
	"testing"
)

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want message containing %q", r, want)
		}
	}()
	f()
}

func TestInvalidMetricNamePanics(t *testing.T) {
	for _, bad := range []string{"", "mdseq-search", "0count", "mdseq.search", "metré"} {
		name := bad
		mustPanic(t, "invalid metric name", func() {
			NewRegistry().Counter(name, "help")
		})
	}
}

func TestValidMetricNamesAccepted(t *testing.T) {
	r := NewRegistry()
	for _, good := range []string{"mdseq_search_total", "go_goroutines", "ns:sub_total", "_hidden", "A9"} {
		r.Counter(good, "help").Inc()
	}
}

func TestInvalidLabelNamePanics(t *testing.T) {
	for _, bad := range []string{"", "shard-id", "0shard", "shard id", "lé"} {
		key := bad
		mustPanic(t, "invalid label name", func() {
			NewRegistry().Counter("ok_total", "help", Label{Key: key, Value: "v"})
		})
	}
}

func TestLabelValuesNeedNoValidation(t *testing.T) {
	// Values are quoted and escaped, so arbitrary bytes are fine.
	r := NewRegistry()
	r.Counter("ok_total", "help", Label{Key: "path", Value: "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label value not escaped:\n%s", b.String())
	}
}

// TestRenderLabelsAllocs: escaping a value that needs none costs nothing —
// the escapers are built once, not per call — which leaves renderLabels its
// own sorted copy and string building. Every request pays this twice
// (Middleware's counter and histogram lookups); with a Replacer built per
// value the same call allocated 21 times.
func TestRenderLabelsAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { escapeLabel("/search") }); n != 0 {
		t.Errorf("escapeLabel on a clean value allocates %v times, want 0", n)
	}
	labels := []Label{{Key: "route", Value: "/search"}, {Key: "code", Value: "200"}}
	if n := testing.AllocsPerRun(100, func() { renderLabels(labels) }); n > 8 {
		t.Errorf("renderLabels allocates %v times for two clean labels, want at most 8", n)
	}
}

func TestHistogramBucketMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_seconds", "help", []float64{0.1, 1})
	mustPanic(t, "registered with buckets", func() {
		r.Histogram("lat_seconds", "help", []float64{0.1, 1, 10})
	})
	// Same family, different label set, divergent bounds: still a panic —
	// all series of a family share one ladder.
	mustPanic(t, "registered with buckets", func() {
		r.Histogram("lat_seconds", "help", []float64{0.2, 2}, Label{Key: "shard", Value: "1"})
	})
}

func TestHistogramSameBucketsReRegisters(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("lat_seconds", "help", []float64{0.1, 1})
	b := r.Histogram("lat_seconds", "help", []float64{1, 0.1}) // same set, unsorted: bounds are canonicalized
	if a != b {
		t.Fatal("same-bounds re-registration must return the same series")
	}
	// nil buckets mean LatencyBuckets on every call, so nil/nil agrees.
	c := r.Histogram("other_seconds", "help", nil)
	if d := r.Histogram("other_seconds", "help", nil); c != d {
		t.Fatal("nil-bucket re-registration must return the same series")
	}
	// ...and nil vs an explicit copy of LatencyBuckets also agrees.
	explicit := append([]float64(nil), LatencyBuckets...)
	if e := r.Histogram("other_seconds", "help", explicit); c != e {
		t.Fatal("explicit LatencyBuckets must match the nil default")
	}
}

func TestFamiliesSorted(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z_gauge", "last")
	r.Counter("a_total", "first")
	r.Histogram("m_seconds", "middle", nil)
	fams := r.Families()
	if len(fams) != 3 {
		t.Fatalf("Families() = %d, want 3", len(fams))
	}
	want := []FamilyInfo{
		{Name: "a_total", Type: "counter", Help: "first"},
		{Name: "m_seconds", Type: "histogram", Help: "middle"},
		{Name: "z_gauge", Type: "gauge", Help: "last"},
	}
	for i, f := range fams {
		if f != want[i] {
			t.Fatalf("Families()[%d] = %+v, want %+v", i, f, want[i])
		}
	}
}
