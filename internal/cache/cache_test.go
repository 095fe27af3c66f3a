package cache

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// key builds a distinct Key from an integer, spread across lock shards.
func key(i int) Key {
	return Key{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i)}
}

// sq builds the 2-D square [lo,hi]² — enough geometry for every test.
func sq(lo, hi float64) geom.Rect {
	return geom.Rect{L: []float64{lo, lo}, H: []float64{hi, hi}}
}

// reg builds a Region over sq(lo, hi) with the given radius.
func reg(lo, hi, radius float64) Region {
	return Region{Rect: sq(lo, hi), Radius: radius}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxBytes: 1 << 20, Shards: 1})
	k := key(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, c.Seq(), Value{Data: "a", Bytes: 10, Region: reg(0, 1, 0.5)})
	v, ok := c.Get(k)
	if !ok || v.Data.(string) != "a" {
		t.Fatalf("Get = %v, %v; want a, true", v.Data, ok)
	}
	if c.Len() != 1 || c.Bytes() != 10 {
		t.Fatalf("Len=%d Bytes=%d; want 1, 10", c.Len(), c.Bytes())
	}
}

func TestPutDroppedAfterWrite(t *testing.T) {
	c := New(Config{MaxEntries: 8, Shards: 1})
	k := key(1)
	seq := c.Seq() // reader snapshots, then "computes" while a write lands
	c.Invalidate(sq(0, 1))
	c.Put(k, seq, Value{Data: "stale", Bytes: 4, Region: reg(0, 1, 0.5)})
	if _, ok := c.Get(k); ok {
		t.Fatal("Put under a pre-write snapshot was stored")
	}
	if c.Len() != 0 {
		t.Fatalf("Len=%d after refused Put; want 0", c.Len())
	}
	// A current snapshot stores normally.
	c.Put(k, c.Seq(), Value{Data: "fresh", Bytes: 4, Region: reg(0, 1, 0.5)})
	if _, ok := c.Get(k); !ok {
		t.Fatal("Put under the current snapshot was refused")
	}
}

func TestMBRScopeKillsOnlyIntersecting(t *testing.T) {
	c := New(Config{MaxEntries: 8, Shards: 1})
	near, far, unknown := key(1), key(2), key(3)
	c.Put(near, c.Seq(), Value{Data: "near", Bytes: 4, Region: reg(0, 1, 0.5)})
	c.Put(far, c.Seq(), Value{Data: "far", Bytes: 4, Region: reg(50, 51, 0.5)})
	c.Put(unknown, c.Seq(), Value{Data: "unknown", Bytes: 4}) // zero Region
	// Write lands inside the near entry's reach, 50 units from the far one.
	c.Invalidate(sq(1.2, 1.4))
	if _, ok := c.Get(near); ok {
		t.Fatal("entry within the write's reach survived")
	}
	if _, ok := c.Get(unknown); ok {
		t.Fatal("unknown-region entry survived a write")
	}
	if _, ok := c.Get(far); !ok {
		t.Fatal("entry provably out of the write's reach was invalidated")
	}
	// The far entry keeps serving across unrelated writes indefinitely.
	for i := 0; i < 5; i++ {
		c.Invalidate(sq(float64(10*i), float64(10*i)+1))
	}
	if _, ok := c.Get(far); !ok {
		t.Fatal("entry out of reach of every write was invalidated")
	}
	// An empty write rect means "unknown extent": everything dies.
	c.Invalidate(geom.Rect{})
	if _, ok := c.Get(far); ok {
		t.Fatal("entry survived a write of unknown extent")
	}
}

func TestRegionStale(t *testing.T) {
	w := sq(2, 3)
	cases := []struct {
		name string
		g    Region
		want bool
	}{
		{"disjoint beyond radius", reg(0, 1, 0.5), false},
		{"disjoint within radius", reg(0, 1, 1.5), true},
		{"touching", reg(0, 2, 0), true},
		{"contained", reg(0, 10, 0), true},
		{"empty rect", Region{Radius: 1}, true},
		{"nan radius", Region{Rect: sq(0, 1), Radius: math.NaN()}, true},
		{"negative radius", Region{Rect: sq(0, 1), Radius: -1}, true},
		{"infinite radius", Region{Rect: sq(0, 1), Radius: math.Inf(1)}, true},
		{"dim mismatch", Region{Rect: geom.Rect{L: []float64{0}, H: []float64{1}}, Radius: 9}, true},
	}
	for _, tc := range cases {
		if got := tc.g.stale(w); got != tc.want {
			t.Errorf("%s: stale = %v; want %v", tc.name, got, tc.want)
		}
	}
	// An empty write rect invalidates even a well-formed region.
	if !reg(0, 1, 0.5).stale(geom.Rect{}) {
		t.Error("empty write rect did not invalidate")
	}
}

func TestPartialNeverCached(t *testing.T) {
	c := New(Config{Shards: 1})
	k := key(1)
	c.Put(k, c.Seq(), Value{Data: "partial", Bytes: 4, Partial: true})
	if _, ok := c.Get(k); ok {
		t.Fatal("partial value was cached")
	}
	if c.Len() != 0 {
		t.Fatalf("Len=%d after refused Put; want 0", c.Len())
	}
}

// TestGDSFEvictsCheapAndAges walks a deterministic insert sequence through
// the GDSF policy: the entry cap holds after every insert, the
// lowest-priority entry goes first, the watermark rises to each victim's
// priority, and that aging lets a late cheap entry outrank an idle
// mid-cost one inserted under a lower watermark.
func TestGDSFEvictsCheapAndAges(t *testing.T) {
	c := New(Config{MaxEntries: 2, MaxBytes: 1 << 20, Shards: 1})
	put := func(i int, cost time.Duration) {
		c.Put(key(i), c.Seq(), Value{Data: i, Bytes: 1, Cost: cost})
		if c.Len() > 2 {
			t.Fatalf("Len=%d after put %d; the entry cap is 2", c.Len(), i)
		}
	}
	put(0, 10)  // pri 10
	put(1, 100) // pri 100
	put(2, 50)  // pri 50 → evicts 0 (pri 10), watermark 10
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("cheapest entry 0 survived; GDSF must evict lowest priority")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("expensive entry 1 was evicted before the cheap one")
	}
	// Get(1) above bumped 1's frequency: pri is now 200, far above the rest.
	put(3, 45) // pri 10+45=55 → evicts 2 (pri 50), watermark 50
	put(4, 10) // pri 50+10=60 → evicts 3 (pri 55): aging beat 3's higher cost
	if _, ok := c.Get(key(3)); ok {
		t.Fatal("entry 3 survived; the risen watermark should age it out")
	}
	for _, i := range []int{1, 4} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("entry %d missing from the expected survivor set", i)
		}
	}
}

// TestGDSFFrequencyProtects checks the frequency term: a repeatedly hit
// cheap entry outranks a never-hit peer of equal cost.
func TestGDSFFrequencyProtects(t *testing.T) {
	c := New(Config{MaxEntries: 2, MaxBytes: 1 << 20, Shards: 1})
	c.Put(key(1), c.Seq(), Value{Data: "hot", Bytes: 1, Cost: 10})
	c.Put(key(2), c.Seq(), Value{Data: "cold", Bytes: 1, Cost: 10})
	for i := 0; i < 5; i++ {
		c.Get(key(1)) // freq 6 → pri 60
	}
	c.Put(key(3), c.Seq(), Value{Data: "new", Bytes: 1, Cost: 15}) // pri 15 → evicts cold (pri 10)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("cold entry survived over the frequently hit one")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("frequently hit entry was evicted")
	}
}

// TestGDSFAdmissionSelfEvicts checks admission control: a one-off cheap
// result cannot displace proven expensive entries — it is itself the
// lowest priority in the full shard and leaves immediately.
func TestGDSFAdmissionSelfEvicts(t *testing.T) {
	c := New(Config{MaxEntries: 2, MaxBytes: 1 << 20, Shards: 1})
	c.Put(key(1), c.Seq(), Value{Data: 1, Bytes: 1, Cost: 1000})
	c.Put(key(2), c.Seq(), Value{Data: 2, Bytes: 1, Cost: 1000})
	c.Put(key(3), c.Seq(), Value{Data: 3, Bytes: 1, Cost: 1}) // pri 1: self-evicted
	if _, ok := c.Get(key(3)); ok {
		t.Fatal("cheap newcomer displaced an expensive entry")
	}
	for _, i := range []int{1, 2} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("expensive entry %d was displaced by a cheap newcomer", i)
		}
	}
}

func TestByteCapEvicts(t *testing.T) {
	t.Run("gdsf", func(t *testing.T) {
		c := New(Config{MaxEntries: 100, MaxBytes: 100, Shards: 1})
		for i := 0; i < 10; i++ {
			c.Put(key(i), c.Seq(), Value{Data: i, Bytes: 30, Cost: time.Duration(1 + i)})
		}
		if c.Bytes() > 100 {
			t.Fatalf("Bytes=%d exceeds the 100-byte cap", c.Bytes())
		}
		if c.Len() != 3 {
			t.Fatalf("Len=%d; want 3 (3×30 ≤ 100 < 4×30)", c.Len())
		}
		// An oversized value is refused outright.
		c.Put(key(99), c.Seq(), Value{Data: "huge", Bytes: 1000})
		if _, ok := c.Get(key(99)); ok {
			t.Fatal("value above the byte cap was cached")
		}
	})
}

func TestUpdateExistingKeyAdjustsBytes(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxBytes: 1 << 20, Shards: 1})
	k := key(1)
	c.Put(k, c.Seq(), Value{Data: "a", Bytes: 10})
	c.Put(k, c.Seq(), Value{Data: "b", Bytes: 30})
	if c.Len() != 1 || c.Bytes() != 30 {
		t.Fatalf("Len=%d Bytes=%d; want 1, 30", c.Len(), c.Bytes())
	}
	if v, ok := c.Get(k); !ok || v.Data.(string) != "b" {
		t.Fatalf("Get = %v, %v; want b", v.Data, ok)
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxEntries: 2, Shards: 1})
	c.SetMetrics(NewMetrics(reg, "test"))
	l := obs.Label{Key: "cache", Value: "test"}

	near := Region{Rect: sq(0, 1), Radius: 0.1}
	c.Get(key(1)) // miss
	c.Put(key(1), c.Seq(), Value{Bytes: 1, Cost: 10, Region: near})
	c.Get(key(1))            // hit, saves 10ns
	c.Invalidate(sq(10, 11)) // far write: shard skipped
	c.Put(key(2), c.Seq(), Value{Bytes: 1, Cost: 0, Region: near})
	c.Invalidate(sq(0.5, 0.6)) // near write: kills both
	c.Get(key(1))              // miss
	for i := 3; i <= 5; i++ {  // third put evicts one
		c.Put(key(i), c.Seq(), Value{Bytes: 1, Region: near})
	}

	check := func(name string, want uint64) {
		t.Helper()
		if got := reg.Counter(name, "", l).Value(); got != want {
			t.Errorf("%s = %d; want %d", name, got, want)
		}
	}
	check("mdseq_cache_hits_total", 1)
	check("mdseq_cache_misses_total", 2)
	check("mdseq_cache_invalidations_total", 2)
	check("mdseq_cache_write_notifications_total", 2)
	check("mdseq_cache_sweep_skips_total", 1)
	check("mdseq_cache_evictions_total", 1)
	check("mdseq_cache_hit_cost_saved_ns_total", 10)
	if got := reg.Gauge("mdseq_cache_entries", "", l).Value(); got != 2 {
		t.Errorf("mdseq_cache_entries = %g; want 2", got)
	}
	if got := reg.Gauge("mdseq_cache_hit_ratio", "", l).Value(); got != 1.0/3.0 {
		t.Errorf("mdseq_cache_hit_ratio = %g; want 1/3", got)
	}
}

// TestConcurrentCapsHold hammers one cache from many goroutines — puts,
// gets, and write invalidations racing — and checks (under -race) that the
// caps hold both during and after the storm. Caps are per lock shard, so
// the cross-shard total may not exceed the configured maxima.
func TestConcurrentCapsHold(t *testing.T) {
	t.Run("gdsf/mbr", func(t *testing.T) {
		cfg := Config{MaxEntries: 64, MaxBytes: 64 * 100, Shards: 4}
		c := New(cfg)
		c.SetMetrics(NewMetrics(obs.NewRegistry(), "race"))
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					k := key(w*1000 + i)
					g := reg(float64(i%7), float64(i%7)+1, 0.5)
					c.Put(k, c.Seq(), Value{Data: i, Bytes: 100, Cost: time.Duration(i), Region: g})
					c.Get(k)
					c.Get(key(i))
					if i%17 == 0 {
						c.Invalidate(sq(float64(i%5), float64(i%5)+0.5))
					}
				}
			}(w)
		}
		wg.Wait()
		if c.Len() > cfg.MaxEntries {
			t.Fatalf("entry cap breached: Len=%d > %d", c.Len(), cfg.MaxEntries)
		}
		if c.Bytes() > cfg.MaxBytes {
			t.Fatalf("byte cap breached: Bytes=%d > %d", c.Bytes(), cfg.MaxBytes)
		}
	})
}

func TestPurge(t *testing.T) {
	c := New(Config{Shards: 2})
	for i := 0; i < 10; i++ {
		c.Put(key(i), c.Seq(), Value{Bytes: 5, Region: reg(0, 1, 0.1)})
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after Purge: Len=%d Bytes=%d; want 0, 0", c.Len(), c.Bytes())
	}
}

func TestShardCountNormalized(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, DefaultShards}, {1, 1}, {3, 4}, {16, 16}, {17, 32}} {
		if got := New(Config{Shards: tc.in}).Config().Shards; got != tc.want {
			t.Errorf("Shards %d normalized to %d; want %d", tc.in, got, tc.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	want := Config{MaxEntries: DefaultMaxEntries, MaxBytes: DefaultMaxBytes, Shards: DefaultShards}
	if cfg := New(Config{}).Config(); cfg != want {
		t.Errorf("zero Config resolved to %+v; want %+v", cfg, want)
	}
}

func ExampleCache() {
	c := New(Config{MaxEntries: 128})
	k := Key{Hi: 1, Lo: 2}
	seq := c.Seq() // snapshot before computing the result
	c.Put(k, seq, Value{
		Data:   "result",
		Bytes:  6,
		Cost:   3 * time.Millisecond, // compute a later hit saves
		Region: Region{Rect: geom.Rect{L: []float64{0, 0}, H: []float64{1, 1}}, Radius: 0.5},
	})
	if v, ok := c.Get(k); ok {
		fmt.Println(v.Data)
	}
	// A write far from the entry's region leaves it servable …
	c.Invalidate(geom.Rect{L: []float64{50, 50}, H: []float64{51, 51}})
	if _, ok := c.Get(k); ok {
		fmt.Println("still cached")
	}
	// … a write within its region (query rect + radius) kills it.
	c.Invalidate(geom.Rect{L: []float64{1.1, 1.1}, H: []float64{1.2, 1.2}})
	if _, ok := c.Get(k); !ok {
		fmt.Println("invalidated")
	}
	// Output:
	// result
	// still cached
	// invalidated
}
