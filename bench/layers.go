package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/rtree"
	"repro/internal/seqio"
	"repro/internal/store"
)

// Isolation rows time each layer's public kernels alone, on the workload's
// own MBRs, points and queries. They say what a layer costs when nothing
// else runs; the peel says what it costs inside a request.

// kernelSink receives results of timed pure calls, so the compiler cannot
// drop them.
var kernelSink float64

// repeat calls fn until slice has elapsed (at least once) and returns the
// mean nanoseconds per unit, where fn reports the units it processed.
func repeat(slice time.Duration, fn func() int) float64 {
	var units int
	t0 := time.Now()
	for {
		units += fn()
		if time.Since(t0) >= slice {
			break
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(units, 1))
}

// queries returns the workload's first n distinct read queries.
func queries(in *inputs, n int) []*request {
	var out []*request
	seen := map[*core.Sequence]bool{}
	for i := range in.stream {
		r := &in.stream[i]
		if r.q == nil || seen[r.q] {
			continue
		}
		seen[r.q] = true
		if out = append(out, r); len(out) == n {
			break
		}
	}
	return out
}

// isolation fills the per-layer rows measured outside any request. budget
// is split evenly over the rows; db is the peel's database.
func isolation(e *env, in *inputs, prep *prepared, p *peel, ms metricSet, budget time.Duration) error {
	const rows = 16
	slice := budget / rows
	cfg := core.DefaultPartitionConfig()
	dim := in.corpus[0].Dim()
	qs := queries(in, 64)

	// A sample of the corpus, segmented: the MBRs and columns the kernels
	// below run on.
	sampleN := min(len(in.corpus), 400)
	segs := make([]*core.Segmented, sampleN)
	var mbrs int
	for i := range segs {
		g, err := core.NewSegmented(in.corpus[i*len(in.corpus)/sampleN], cfg)
		if err != nil {
			return err
		}
		segs[i] = g
		mbrs += len(g.MBRs)
	}

	// core: MCOST partitioning and single-sequence ingest.
	i := 0
	ms.set("core.partition_ns_per_point", "ns", repeat(slice, func() int {
		s := segs[i%sampleN].Seq
		i++
		core.Partition(s, cfg)
		return s.Len()
	}))
	addDB, err := core.NewDatabase(core.Options{Dim: dim})
	if err != nil {
		return err
	}
	i = 0
	ms.set("core.add_us", "us", repeat(slice, func() int {
		addDB.Add(segs[i%sampleN].Seq)
		i++
		return 1
	})/1e3)
	addDB.Close()

	// core: the DTW dynamic program, on pairs the band can align.
	a, b := segs[0].Seq.Points, segs[0].Seq.Points[:max(segs[0].Seq.Len()-dtwWindow/2, 1)]
	cells := len(a) * min(2*dtwWindow+1, len(b))
	ms.set("core.dtw_dp_ns_per_cell", "ns", repeat(slice, func() int {
		core.DTW(a, b, dtwWindow)
		return cells
	}))

	// geom: the phase-3 kernels over one sequence's columnar bounds.
	big := segs[0]
	for _, g := range segs {
		if len(g.MBRs) > len(big.MBRs) {
			big = g
		}
	}
	qbox := qs[0].q.Bounds()
	out := make([]float64, len(big.MBRs))
	ms.set("geom.mindist_batch_ns_per_pair", "ns", repeat(slice, func() int {
		geom.MinDistSqBatch(qbox.L, qbox.H, big.Lo, big.Hi, out)
		return len(out)
	}))
	qlo, qhi := make([]float32, len(big.Lo)), make([]float32, len(big.Hi))
	geom.QuantizeDown(qlo, big.Lo)
	geom.QuantizeUp(qhi, big.Hi)
	ms.set("geom.mindist_batchq_ns_per_pair", "ns", repeat(slice, func() int {
		geom.MinDistSqBatchQ(qbox.L, qbox.H, qlo, qhi, out)
		return len(out)
	}))
	qflat := make([]float64, 0, qs[0].q.Len()*dim)
	for _, pt := range qs[0].q.Points {
		qflat = append(qflat, pt...)
	}
	ms.set("geom.distsq_flat_ns_per_point", "ns", repeat(slice, func() int {
		n := min(len(qflat), len(big.Flat))
		kernelSink += geom.DistSqFlat(qflat[:n], big.Flat[:n])
		return n / dim
	}))

	// rtree: bulk load, insert and the phase-2 range probe over the sample's
	// MBRs, on an in-memory pager as -data workloads use.
	items := make([]rtree.Item, 0, mbrs)
	for si, g := range segs {
		for j := range g.MBRs {
			items = append(items, rtree.Item{Rect: g.MBRs[j].Rect, Ref: rtree.PackRef(uint32(si), uint32(j))})
		}
	}
	newTree := func() (*rtree.Tree, *pager.Pager, error) {
		pg, err := pager.Open(pager.Options{})
		if err != nil {
			return nil, nil, err
		}
		t, err := rtree.New(rtree.Options{Dim: dim, Pager: pg})
		return t, pg, err
	}
	tree, pg, err := newTree()
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := tree.BulkLoad(items); err != nil {
		return err
	}
	ms.set("rtree.bulkload_ms", "ms", float64(time.Since(t1).Microseconds())/1e3)
	ms.set("rtree.height", "count", float64(tree.Height()))
	var hits int
	var refs []rtree.Ref
	i = 0
	eps := max(qs[0].eps, 0.05)
	perProbe := repeat(slice, func() int {
		q := qs[i%len(qs)].q
		i++
		refs, _ = tree.AppendWithinDist(q.Bounds(), eps, refs[:0])
		hits += len(refs)
		return 1
	})
	ms.set("rtree.within_us", "us", perProbe/1e3)
	ms.set("rtree.within_ns_per_hit", "ns", perProbe*float64(i)/float64(max(hits, 1)))
	pg.Close()
	tree, pg, err = newTree()
	if err != nil {
		return err
	}
	i = 0
	ms.set("rtree.insert_us", "us", repeat(slice, func() int {
		it := items[i%len(items)]
		i++
		tree.Insert(it.Rect, it.Ref)
		return 1
	})/1e3)
	pg.Close()

	// pager: a page read served by the pool, and one that must evict and
	// read the backing file, on a file twice the pool.
	hit, miss, err := pagerReads(filepath.Join(e.work, "pager-probe.db"), slice)
	if err != nil {
		return err
	}
	ms.set("pager.read_hit_ns", "ns", hit)
	ms.set("pager.read_miss_ns", "ns", miss)

	// cache: the three calls the search path makes, at the workload's
	// capacity (or mdsserve's smallest useful one where it runs cache-off).
	entries := max(in.spec.cacheEntries, 128)
	qc := cache.New(cache.Config{MaxEntries: entries})
	keys := make([]cache.Key, len(qs))
	vals := make([]cache.Value, len(qs))
	for k, r := range qs {
		keys[k] = core.RangeCacheKey(r.q, eps, cfg)
		vals[k] = cache.Value{Data: k, Bytes: 4096, Cost: time.Millisecond, Region: cache.Region{Rect: r.q.Bounds(), Radius: eps}}
		qc.Put(keys[k], qc.Seq(), vals[k])
	}
	i = 0
	ms.set("cache.get_hit_ns", "ns", repeat(slice, func() int {
		qc.Get(keys[i%len(keys)])
		i++
		return 1
	}))
	ms.set("cache.put_ns", "ns", repeat(slice, func() int {
		k := i % len(keys)
		i++
		qc.Put(keys[k], qc.Seq(), vals[k])
		return 1
	}))
	// A write far from every cached region: the sweep runs, nothing is
	// dropped, and the next iteration meets the same cache.
	far := geom.MustRect(geom.Point{9, 9, 9}[:dim], geom.Point{9.1, 9.1, 9.1}[:dim])
	ms.set("cache.invalidate_ns", "ns", repeat(slice, func() int {
		qc.Invalidate(far)
		return 1
	}))

	// shard: eight queries in one batched scatter.
	batch := make([]*core.Sequence, 0, 8)
	for _, r := range qs[:min(8, len(qs))] {
		batch = append(batch, r.q)
	}
	ms.set("shard.batch8_us_per_query", "us", repeat(slice, func() int {
		p.db.SearchBatchCtx(context.Background(), batch, eps)
		return len(batch)
	})/1e3)

	// store and seqio: build, open and read the corpus's on-disk forms.
	dir, buildS := prep.dataDir, prep.buildS
	if !in.spec.store {
		dir = filepath.Join(e.work, "store-probe")
		t2 := time.Now()
		if err := store.Build(dir, in.corpus, cfg); err != nil {
			return err
		}
		buildS = time.Since(t2).Seconds()
	}
	t3 := time.Now()
	sdb, err := store.LoadWith(dir, store.LoadOptions{})
	if err != nil {
		return err
	}
	ms.set("store.open_ms", "ms", float64(time.Since(t3).Microseconds())/1e3)
	sdb.Close()
	ms.set("store.build_s", "s", buildS)
	// The segment file alone: the index file beside it is a cache mdsserve
	// rebuilds at every start.
	segBytes, err := os.Stat(filepath.Join(dir, "segments.sg2"))
	if err != nil {
		return err
	}
	ms.set("store.bytes_per_user_byte", "ratio", float64(segBytes.Size())/float64(in.userBytes))

	mds := prep.dataFile
	if mds == "" {
		mds = filepath.Join(e.work, "corpus-probe.mds")
		if err := seqio.WriteFile(mds, in.corpus[:min(len(in.corpus), 1600)]); err != nil {
			return err
		}
	}
	info, err := os.Stat(mds)
	if err != nil {
		return err
	}
	t4 := time.Now()
	if _, err := seqio.ReadFile(mds); err != nil {
		return err
	}
	ms.set("seqio.read_mb_per_s", "MB/s", float64(info.Size())/1e6/time.Since(t4).Seconds())
	return nil
}

// pagerReads opens a file-backed pager whose file is twice its pool and
// times Read on a resident page and on pages cycled past the pool.
func pagerReads(path string, slice time.Duration) (hitNS, missNS float64, err error) {
	const pool = 64
	pg, err := pager.Open(pager.Options{Path: path, PoolPages: pool})
	if err != nil {
		return 0, 0, err
	}
	defer pg.Close()
	buf := make([]byte, pg.PageSize())
	ids := make([]pager.PageID, 2*pool)
	for i := range ids {
		if ids[i], err = pg.Alloc(); err != nil {
			return 0, 0, err
		}
		if err = pg.Write(ids[i], buf); err != nil {
			return 0, 0, err
		}
	}
	if err = pg.Flush(); err != nil {
		return 0, 0, err
	}
	if err = pg.Read(ids[0], buf); err != nil {
		return 0, 0, err
	}
	hitNS = repeat(slice/2, func() int {
		pg.Read(ids[0], buf)
		return 1
	})
	// Cycling through twice the pool under LRU misses every time.
	i := 0
	missNS = repeat(slice/2, func() int {
		pg.Read(ids[i%len(ids)], buf)
		i++
		return 1
	})
	return hitNS, missNS, nil
}
