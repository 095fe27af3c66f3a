package shard

// Cache acceptance tests. Three measurements share this file:
//
//   - TestCacheThroughputAB: cache off vs on — the same query workload
//     against a sharded database with the query cache detached and then
//     attached, measuring throughput and hit ratio. Two workloads bound
//     the realistic range: "repeated" cycles a small set of distinct
//     queries (the paper's motivating video/image applications re-ask hot
//     queries heavily) and "zipf" draws from a skewed popularity
//     distribution over a larger pool.
//
//   - TestCachePolicyAB: GDSF eviction under a capacity-constrained mix
//     of hot expensive queries and one-off cheap churn, the workload on
//     which recency-only eviction keeps nothing (EXPERIMENTS.md has the
//     recorded LRU side).
//
//   - TestCacheScopeAB: MBR-scoped invalidation under mixed read/write
//     traffic where the writes land far from the queried region and must
//     invalidate nothing (EXPERIMENTS.md has the recorded flush-on-write
//     side).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

const (
	cacheBenchShards  = 4
	cacheBenchCorpus  = 96
	cacheBenchSeqLen  = 64
	cacheBenchQueries = 400
)

// cacheBenchFixture builds the corpus and a pool of n distinct queries
// (windows of stored sequences, so every query does real phase-3 work).
func cacheBenchFixture(t testing.TB, n int) (*ShardedDB, []*core.Sequence) {
	t.Helper()
	seqs := corpus(t, cacheBenchCorpus, cacheBenchSeqLen, 17)
	sdb := newSharded(t, clone(seqs), cacheBenchShards)
	pool := make([]*core.Sequence, n)
	for i := range pool {
		src := seqs[i%len(seqs)]
		off := (i * 3) % (cacheBenchSeqLen - 32)
		pool[i] = &core.Sequence{Label: "q", Points: src.Points[off : off+32]}
	}
	return sdb, pool
}

// runCacheWorkload executes the workload (a sequence of pool indexes)
// and returns the wall time plus how many answers were served from the
// cache, taken from the authoritative per-query CacheHit flag.
func runCacheWorkload(t testing.TB, sdb *ShardedDB, pool []*core.Sequence, workload []int) (time.Duration, int) {
	t.Helper()
	hits := 0
	t0 := time.Now()
	for _, qi := range workload {
		_, st, err := sdb.SearchCtx(context.Background(), pool[qi], 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			hits++
		}
	}
	return time.Since(t0), hits
}

// cacheWorkloads returns the two measured index streams over a pool of
// the given size: round-robin repetition of a hot set, and Zipf draws.
func cacheWorkloads(distinct int) map[string][]int {
	repeated := make([]int, cacheBenchQueries)
	for i := range repeated {
		repeated[i] = i % 8
	}
	rng := rand.New(rand.NewSource(23))
	z := rand.NewZipf(rng, 1.2, 1, uint64(distinct-1))
	zipf := make([]int, cacheBenchQueries)
	for i := range zipf {
		zipf[i] = int(z.Uint64())
	}
	return map[string][]int{"repeated": repeated, "zipf": zipf}
}

// TestCacheThroughputAB is the cache-off/cache-on acceptance
// measurement: on the repeated-query workload the cached run must be at
// least 2x the uncached throughput at a >= 90% hit ratio (every distinct
// query can miss at most once — there are no writes, so nothing is
// invalidated or evicted). Zipf, with a pool wider than the hot set,
// must still clear >= 85% hits and beat the uncached run.
func TestCacheThroughputAB(t *testing.T) {
	const distinct = 64
	sdb, pool := cacheBenchFixture(t, distinct)

	type result struct {
		UncachedQPS, CachedQPS, Speedup, HitRatio float64
	}
	var results []result
	for _, name := range []string{"repeated", "zipf"} {
		workload := cacheWorkloads(distinct)[name]
		sdb.SetCache(nil)
		durOff, hitsOff := runCacheWorkload(t, sdb, pool, workload)
		if hitsOff != 0 {
			t.Fatalf("%s: %d cache hits with no cache attached", name, hitsOff)
		}
		sdb.SetCache(cache.New(cache.Config{}))
		durOn, hitsOn := runCacheWorkload(t, sdb, pool, workload)

		r := result{
			UncachedQPS: float64(len(workload)) / durOff.Seconds(),
			CachedQPS:   float64(len(workload)) / durOn.Seconds(),
			Speedup:     durOff.Seconds() / durOn.Seconds(),
			HitRatio:    float64(hitsOn) / float64(len(workload)),
		}
		results = append(results, r)
		t.Logf("%s: uncached %.0f q/s, cached %.0f q/s (%.1fx), hit ratio %.3f",
			name, r.UncachedQPS, r.CachedQPS, r.Speedup, r.HitRatio)
	}

	rep, zipf := results[0], results[1]
	if rep.HitRatio < 0.9 {
		t.Errorf("repeated workload hit ratio %.3f < 0.90", rep.HitRatio)
	}
	if rep.Speedup < 2 {
		t.Errorf("repeated workload speedup %.2fx < 2x", rep.Speedup)
	}
	if zipf.HitRatio < 0.85 {
		t.Errorf("zipf workload hit ratio %.3f < 0.85", zipf.HitRatio)
	}
	if zipf.Speedup <= 1 {
		t.Errorf("zipf workload speedup %.2fx: cache made the workload slower", zipf.Speedup)
	}
}

// policyABWorkload runs the hot+churn mix against sdb. Hot queries are
// kNN — the expensive-compute, tiny-result shape the GDSF cost term is
// built for (every stored sequence gets a lower-bound pass, yet the
// cached value is just k results) — and churn queries are narrow one-off
// range probes. The interleaving re-asks every hot query each round with
// enough fresh churn in between to overflow the cache's entry cap.
func policyABWorkload(t *testing.T, sdb *ShardedDB, hot, churn []*core.Sequence, rounds, churnPerRound int) {
	t.Helper()
	ci := 0
	for r := 0; r < rounds; r++ {
		for _, q := range hot {
			if _, err := sdb.SearchKNNCtx(context.Background(), q, 8); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < churnPerRound; j++ {
			if _, _, err := sdb.SearchCtx(context.Background(), churn[ci], 0.01); err != nil {
				t.Fatal(err)
			}
			ci++
		}
	}
}

// TestCachePolicyAB is the eviction-policy acceptance measurement: under
// a capacity-constrained mix of hot expensive queries and a stream of
// one-off cheap queries, the cache must keep serving the hot ones. The
// workload is adversarial for recency: each round's churn overflows the
// entry cap, so recency-only eviction drops every hot entry between
// re-asks (0 hits of 160 when LRU was measured beside it), while GDSF's
// cost × frequency priority (and its self-evicting admission of cheap
// newcomers) keeps the expensive entries resident: 36 of the 160.
func TestCachePolicyAB(t *testing.T) {
	const (
		hotN          = 4
		rounds        = 10
		churnPerRound = 12
		capEntries    = 8 // < hotN + churnPerRound: every round overflows
	)
	seqs := corpus(t, cacheBenchCorpus, cacheBenchSeqLen, 17)
	sdb := newSharded(t, clone(seqs), cacheBenchShards)

	hot := make([]*core.Sequence, hotN)
	for i := range hot {
		hot[i] = &core.Sequence{Label: "hot", Points: seqs[i].Points[0:32]}
	}
	churn := make([]*core.Sequence, rounds*churnPerRound)
	for i := range churn {
		src := seqs[(i*5)%len(seqs)]
		off := (i * 7) % (cacheBenchSeqLen - 8)
		churn[i] = &core.Sequence{Label: "churn", Points: src.Points[off : off+8]}
	}

	total := rounds * (hotN + churnPerRound)
	l := obs.Label{Key: "cache", Value: "front"}
	reg := obs.NewRegistry()
	front := cache.New(cache.Config{MaxEntries: capEntries, Shards: 1})
	front.SetMetrics(cache.NewMetrics(reg, "front"))
	sdb.SetCache(front)
	policyABWorkload(t, sdb, hot, churn, rounds, churnPerRound)
	hits := int(reg.Counter("mdseq_cache_hits_total", "", l).Value())
	saved := reg.Counter("mdseq_cache_hit_cost_saved_ns_total", "", l).Value()
	t.Logf("gdsf: %d/%d hits, %.2f ms CPU saved", hits, total, float64(saved)/float64(time.Millisecond))
	if hits < 30 {
		t.Errorf("%d of %d hits under the churn workload, want >= 30: the hot entries did not stay resident", hits, total)
	}
	if saved == 0 {
		t.Error("hits saved no recorded CPU")
	}
}

// clusteredCorpus builds sequences confined to the cube
// [base, base+0.15]³, so reads and writes can be aimed at provably
// disjoint regions of space.
func clusteredCorpus(t *testing.T, n, length int, base float64, seed int64) []*core.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]*core.Sequence, n)
	for i := range seqs {
		pts := make([]geom.Point, length)
		cur := [3]float64{base + 0.10*rng.Float64(), base + 0.10*rng.Float64(), base + 0.10*rng.Float64()}
		for j := range pts {
			for k := 0; k < 3; k++ {
				cur[k] += (rng.Float64() - 0.5) * 0.02
				if cur[k] < base {
					cur[k] = base
				}
				if cur[k] > base+0.15 {
					cur[k] = base + 0.15
				}
			}
			pts[j] = geom.Point{cur[0], cur[1], cur[2]}
		}
		s, err := core.NewSequence(fmt.Sprintf("c%.1f-%03d", base, i), pts)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = s
	}
	return seqs
}

// TestCacheScopeAB is the invalidation-scope acceptance measurement:
// under mixed read/write traffic where the queries probe one spatial
// cluster and the writes land in another, the cache must keep hitting. A
// write lands between every repeat of a query here, so a cache that
// flushed on every write barely hits at all (hit ratio 0.00 when that
// scope was measured beside this one); MBR scoping proves each write
// cannot reach any cached query's region and keeps serving (0.96).
func TestCacheScopeAB(t *testing.T) {
	const (
		queries      = 200
		poolN        = 8
		writeEvery   = 4
		eps          = 0.05
		corpusN      = 48
		corpusSeqLen = 32
	)
	// Corpus and queries live in [0, 0.15]³; writes land in [0.8, 0.95]³,
	// over 1.0 away — far beyond ε, so no write can change any answer.
	reads := clusteredCorpus(t, corpusN, corpusSeqLen, 0, 41)
	pool := make([]*core.Sequence, poolN)
	for i := range pool {
		pool[i] = &core.Sequence{Label: "q", Points: reads[i].Points[4:20]}
	}

	sdb := newSharded(t, clone(reads), cacheBenchShards)
	sdb.SetCache(cache.New(cache.Config{}))
	writes := clusteredCorpus(t, queries/writeEvery+1, corpusSeqLen, 0.8, 43)
	hits, wrote := 0, 0
	for i := 0; i < queries; i++ {
		_, st, err := sdb.SearchCtx(context.Background(), pool[i%poolN], eps)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			hits++
		}
		if i%writeEvery == writeEvery-1 {
			if _, err := sdb.Add(writes[wrote]); err != nil {
				t.Fatal(err)
			}
			wrote++
		}
	}
	ratio := float64(hits) / float64(queries)
	t.Logf("mbr: %d/%d hits (%.3f) across %d interleaved writes", hits, queries, ratio, wrote)
	if ratio < 0.9 {
		t.Errorf("hit ratio %.3f < 0.90: disjoint writes should invalidate nothing", ratio)
	}
}

// BenchmarkCachedSearch reports the same comparison in benchmark form:
// ns/op for a repeated query with the cache detached vs attached.
func BenchmarkCachedSearch(b *testing.B) {
	for _, mode := range []struct {
		name  string
		cache *cache.Cache
	}{
		{"uncached", nil},
		{"cached", cache.New(cache.Config{})},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sdb, pool := cacheBenchFixture(b, 1)
			sdb.SetCache(mode.cache)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sdb.SearchCtx(context.Background(), pool[0], 0.25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
