package pager

import (
	"math/rand"
	"testing"
)

// TestPoliciesCorrectUnderPressure runs a randomized read/write workload
// with a tiny pool; contents must always read back correctly regardless
// of eviction order.
func TestPoliciesCorrectUnderPressure(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		p, err := Open(Options{PageSize: 128, PoolPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		const pages = 32
		want := make([]byte, pages)
		for i := 0; i < pages; i++ {
			id, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			want[id] = byte(i + 1)
			if err := fill(p, id, want[id]); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(0))
		buf := make([]byte, 128)
		for step := 0; step < 2000; step++ {
			id := PageID(rng.Intn(pages))
			if rng.Intn(4) == 0 {
				want[id] = byte(rng.Intn(255) + 1)
				if err := fill(p, id, want[id]); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := p.Read(id, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != want[id] {
					t.Fatalf("step %d: page %d = %#x, want %#x", step, id, buf[0], want[id])
				}
			}
		}
		if st := p.Stats(); st.Evicted == 0 {
			t.Error("no evictions under a 4-page pool?")
		}
	})
}

// TestPolicyHitRatiosComparable: on a zipf-ish skewed workload the LRU
// pool should achieve a substantial hit ratio.
func TestPolicyHitRatiosComparable(t *testing.T) {
	p, err := Open(Options{PageSize: 128, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const pages = 128
	for i := 0; i < pages; i++ {
		p.Alloc()
	}
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, 1, pages-1)
	buf := make([]byte, 128)
	p.ResetStats()
	for step := 0; step < 20000; step++ {
		if err := p.Read(PageID(z.Uint64()), buf); err != nil {
			t.Fatal(err)
		}
	}
	r := p.Stats().HitRatio()
	t.Logf("hit ratio: lru=%.3f", r)
	if r < 0.5 {
		t.Errorf("hit ratio %.3f too low for a zipf workload", r)
	}
}
