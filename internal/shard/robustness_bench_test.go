package shard

// Straggler benchmark for the hedging path: one of eight shards is made
// deterministically slow through a cycling FaultDB script, and the same
// query mix runs with hedging off and on. The hedged run cuts the
// injected tail (P99) because every hedge lands on the script's fast
// entry while the primary is stuck in the slow one.
//
// The measurement doubles as the EXPERIMENTS.md fault-injection
// experiment: the test logs the before/after percentiles and the
// hedges-won count.

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

const (
	stragglerShards  = 8
	stragglerDelay   = 40 * time.Millisecond
	stragglerQueries = 30
	stragglerHedge   = 4 * time.Millisecond
)

// stragglerFixture builds an 8-shard database whose shard 0 alternates
// slow/fast per call: a cycling script of {Delay} then {} means an
// unhedged workload sees every other query stall, while a hedged workload
// has each stalled primary raced by a pass-through hedge.
func stragglerFixture(t testing.TB) (*ShardedDB, *core.Sequence, *obs.Registry) {
	t.Helper()
	seqs := corpus(t, 64, 64, 7)
	sdb := newSharded(t, clone(seqs), stragglerShards)
	f := NewFaultDB(sdb.Shard(0), Fault{Delay: stragglerDelay}, Fault{})
	f.Cycle = true
	sdb.SetShardBackend(0, f)
	reg := obs.NewRegistry()
	sdb.SetMetrics(reg)
	return sdb, &core.Sequence{Label: "q", Points: seqs[1].Points[8:40]}, reg
}

// runQueries executes n identical scatter searches and returns each
// query's wall latency.
func runQueries(t testing.TB, sdb *ShardedDB, q *core.Sequence, n int) []time.Duration {
	t.Helper()
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		if _, _, err := sdb.SearchCtx(context.Background(), q, 0.25); err != nil {
			t.Fatal(err)
		}
		out[i] = time.Since(t0)
	}
	return out
}

// percentile returns the p-th percentile (0..100) of the sample by
// nearest-rank on the sorted copy.
func percentile(samples []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s)-1) * p / 100)
	return s[idx]
}

// TestFaultStragglerHedgingP99 is the acceptance measurement: with one
// shard of eight injected slow, every stalled primary must be raced by a
// hedge and the hedge must win, visible in mdseq_shard_hedges_won_total.
// That, and the unhedged P99 sitting at the injected delay, is what the
// script makes certain, and all a plain test run asserts. That the hedged
// P99 comes out below the unhedged one is a wall-clock comparison — one
// query frozen for 40 ms on a busy two-core box turns it around — so it is
// logged and never fatal.
func TestFaultStragglerHedgingP99(t *testing.T) {
	sdb, q, reg := stragglerFixture(t)

	// Phase 1: hedging off — every other query eats the full injected
	// delay, so P99 is pinned at >= stragglerDelay by construction.
	unhedged := runQueries(t, sdb, q, stragglerQueries)

	// Phase 2: hedging on — each stalled primary is raced after
	// stragglerHedge by a hedge that draws the script's fast entry, which
	// leaves the slow one to the next primary: every query stalls, and
	// every hedge wins.
	sdb.SetPolicy(Policy{HedgeAfter: stragglerHedge})
	hedged := runQueries(t, sdb, q, stragglerQueries)

	up50, up99 := percentile(unhedged, 50), percentile(unhedged, 99)
	hp50, hp99 := percentile(hedged, 50), percentile(hedged, 99)
	hedges := reg.Counter("mdseq_shard_hedges_total", "").Value()
	hedgesWon := reg.Counter("mdseq_shard_hedges_won_total", "").Value()
	t.Logf("unhedged p50=%v p99=%v | hedged p50=%v p99=%v | hedges launched=%d won=%d",
		up50, up99, hp50, hp99, hedges, hedgesWon)

	if up99 < stragglerDelay {
		t.Fatalf("unhedged P99 %v below the injected %v delay; fixture broken", up99, stragglerDelay)
	}
	// A hedge needs microseconds of CPU in the 36 ms its primary still
	// sleeps; one in ten may lose them to a frozen process.
	if want := uint64(stragglerQueries * 9 / 10); hedgesWon < want {
		t.Fatalf("%d hedges launched and %d won over %d stalled primaries, want at least %d won",
			hedges, hedgesWon, stragglerQueries, want)
	}
	if hp99 >= up99 {
		t.Logf("hedging did not cut the tail: hedged P99 %v >= unhedged P99 %v (wall clock; not fatal)", hp99, up99)
	}
}

// BenchmarkStragglerScatter reports the same comparison in benchmark
// form: ns/op with one slow shard of eight, hedging off vs on.
func BenchmarkStragglerScatter(b *testing.B) {
	for _, mode := range []struct {
		name string
		pol  Policy
	}{
		{"unhedged", Policy{}},
		{"hedged", Policy{HedgeAfter: stragglerHedge}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sdb, q, _ := stragglerFixture(b)
			sdb.SetPolicy(mode.pol)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sdb.SearchCtx(context.Background(), q, 0.25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
