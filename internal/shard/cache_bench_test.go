package shard

// Cache A/B benchmarks. Three measurements share this file and the
// BENCH_cache.json document (one top-level section each, merged so the
// tests can run independently):
//
//   - query_cache_ab (TestCacheThroughputAB): cache off vs on — the same
//     query workload against a sharded database with the query cache
//     detached and then attached, measuring throughput and hit ratio.
//     Two workloads bound the realistic range: "repeated" cycles a small
//     set of distinct queries (the paper's motivating video/image
//     applications re-ask hot queries heavily) and "zipf" draws from a
//     skewed popularity distribution over a larger pool.
//
//   - policy_ab (TestCachePolicyAB): LRU vs GDSF under a capacity-
//     constrained mix of hot expensive queries and one-off cheap churn.
//     The acceptance metric is hit-weighted CPU saved — the summed
//     CPUTime of the runs that hits avoided redoing — which is what the
//     GDSF cost term optimizes for.
//
//   - scope_ab (TestCacheScopeAB): epoch-flush vs MBR-scoped
//     invalidation under mixed read/write traffic where the writes land
//     far from the queried region. Epoch scope flushes on every write;
//     MBR scope proves the writes harmless and keeps serving.
//
// When BENCH_CACHE_OUT is set (CI sets it to BENCH_cache.json) each test
// writes its section into the shared JSON document.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
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

// mergeBenchSection upserts one top-level section of the shared
// BENCH_CACHE_OUT document, preserving sections other tests wrote. The
// package's tests run sequentially, so read-modify-write is safe.
func mergeBenchSection(t *testing.T, section string, v any) {
	t.Helper()
	out := os.Getenv("BENCH_CACHE_OUT")
	if out == "" {
		return
	}
	doc := map[string]json.RawMessage{}
	if b, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			doc = map[string]json.RawMessage{} // stale format: start over
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	doc[section] = b
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	t.Logf("wrote section %q to %s", section, out)
}

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
// must still clear >= 85% hits and beat the uncached run. With
// BENCH_CACHE_OUT set the numbers land in the query_cache_ab section of
// BENCH_cache.json.
func TestCacheThroughputAB(t *testing.T) {
	const distinct = 64
	sdb, pool := cacheBenchFixture(t, distinct)

	type result struct {
		Workload    string  `json:"workload"`
		Queries     int     `json:"queries"`
		Distinct    int     `json:"distinct_queries"`
		UncachedQPS float64 `json:"uncached_qps"`
		CachedQPS   float64 `json:"cached_qps"`
		Speedup     float64 `json:"speedup"`
		HitRatio    float64 `json:"hit_ratio"`
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
			Workload:    name,
			Queries:     len(workload),
			Distinct:    distinct,
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

	mergeBenchSection(t, "query_cache_ab", map[string]any{
		"shards":  cacheBenchShards,
		"corpus":  cacheBenchCorpus,
		"seq_len": cacheBenchSeqLen,
		"results": results,
	})
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
// one-off cheap queries, GDSF must beat LRU on hit-weighted CPU saved
// (the mdseq_cache_hit_cost_saved_ns_total counter — the compute the
// hits avoided redoing). The workload is adversarial for recency: each
// round's churn overflows the entry cap, so LRU evicts every hot entry
// between re-asks, while GDSF's cost × frequency priority (and its
// self-evicting admission of cheap newcomers) keeps the expensive
// entries resident. With BENCH_CACHE_OUT set the numbers land in the
// policy_ab section of BENCH_cache.json.
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

	type result struct {
		Policy     string  `json:"policy"`
		Queries    int     `json:"queries"`
		Hits       int     `json:"hits"`
		HitRatio   float64 `json:"hit_ratio"`
		CPUSavedMS float64 `json:"hit_weighted_cpu_saved_ms"`
	}
	total := rounds * (hotN + churnPerRound)
	l := obs.Label{Key: "cache", Value: "front"}
	measure := func(pol cache.Policy) result {
		reg := obs.NewRegistry()
		front := cache.New(cache.Config{MaxEntries: capEntries, Shards: 1, Policy: pol})
		front.SetMetrics(cache.NewMetrics(reg, "front"))
		sdb.SetCache(front)
		policyABWorkload(t, sdb, hot, churn, rounds, churnPerRound)
		hits := int(reg.Counter("mdseq_cache_hits_total", "", l).Value())
		saved := reg.Counter("mdseq_cache_hit_cost_saved_ns_total", "", l).Value()
		return result{
			Policy:     string(pol),
			Queries:    total,
			Hits:       hits,
			HitRatio:   float64(hits) / float64(total),
			CPUSavedMS: float64(saved) / float64(time.Millisecond),
		}
	}
	lru := measure(cache.PolicyLRU)
	gdsf := measure(cache.PolicyGDSF)
	for _, r := range []result{lru, gdsf} {
		t.Logf("%s: %d/%d hits (%.3f), %.2f ms CPU saved",
			r.Policy, r.Hits, r.Queries, r.HitRatio, r.CPUSavedMS)
	}

	if gdsf.CPUSavedMS <= lru.CPUSavedMS {
		t.Errorf("GDSF saved %.2f ms <= LRU's %.2f ms; cost-aware eviction must win on hit-weighted CPU",
			gdsf.CPUSavedMS, lru.CPUSavedMS)
	}
	if gdsf.Hits <= lru.Hits {
		t.Errorf("GDSF hits %d <= LRU hits %d on the churn workload", gdsf.Hits, lru.Hits)
	}

	mergeBenchSection(t, "policy_ab", map[string]any{
		"cache_entries":   capEntries,
		"hot_queries":     hotN,
		"churn_per_round": churnPerRound,
		"rounds":          rounds,
		"results":         []result{lru, gdsf},
	})
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
// cluster and the writes land in another, the MBR-scoped cache must
// sustain a hit ratio strictly above the epoch-flush baseline. The
// epoch-scoped run flushes the whole cache on every write (a write lands
// between every repeat of a query here, so it barely hits at all); the
// MBR-scoped run proves each write cannot reach any cached query's
// region and keeps serving. With BENCH_CACHE_OUT set the numbers land in
// the scope_ab section of BENCH_cache.json.
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

	type result struct {
		Scope    string  `json:"scope"`
		Queries  int     `json:"queries"`
		Writes   int     `json:"writes"`
		Hits     int     `json:"hits"`
		HitRatio float64 `json:"hit_ratio"`
	}
	measure := func(scope cache.Scope) result {
		sdb := newSharded(t, clone(reads), cacheBenchShards)
		sdb.SetCache(cache.New(cache.Config{Scope: scope}))
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
		return result{
			Scope:    string(scope),
			Queries:  queries,
			Writes:   wrote,
			Hits:     hits,
			HitRatio: float64(hits) / float64(queries),
		}
	}
	epoch := measure(cache.ScopeEpoch)
	mbr := measure(cache.ScopeMBR)
	for _, r := range []result{epoch, mbr} {
		t.Logf("%s: %d/%d hits (%.3f) across %d interleaved writes",
			r.Scope, r.Hits, r.Queries, r.HitRatio, r.Writes)
	}

	if mbr.HitRatio <= epoch.HitRatio {
		t.Errorf("mbr hit ratio %.3f <= epoch baseline %.3f; region scoping must retain hits through disjoint writes",
			mbr.HitRatio, epoch.HitRatio)
	}
	if mbr.HitRatio < 0.9 {
		t.Errorf("mbr hit ratio %.3f < 0.90: disjoint writes should invalidate nothing", mbr.HitRatio)
	}

	mergeBenchSection(t, "scope_ab", map[string]any{
		"shards":      cacheBenchShards,
		"corpus":      corpusN,
		"write_every": writeEvery,
		"eps":         eps,
		"results":     []result{epoch, mbr},
	})
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
