package mdseq_test

import (
	"fmt"

	mdseq "repro"
)

// ExampleOpen shows the minimal index-and-search round trip.
func ExampleOpen() {
	db, err := mdseq.Open(mdseq.Options{Dim: 2})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	// A short trail and a query equal to its middle part.
	trail, _ := mdseq.NewSequence("trail", []mdseq.Point{
		{0.10, 0.10}, {0.12, 0.11}, {0.14, 0.13},
		{0.50, 0.52}, {0.52, 0.54}, {0.54, 0.55},
		{0.90, 0.88}, {0.92, 0.90}, {0.94, 0.91},
	})
	if _, err := db.Add(trail); err != nil {
		panic(err)
	}
	query, _ := mdseq.NewSequence("q", trail.Points[3:6])
	matches, _, err := db.Search(query, 0.01)
	if err != nil {
		panic(err)
	}
	for _, m := range matches {
		fmt.Printf("%s matches at %v\n", m.Seq.Label, m.Interval.Ranges())
	}
	// Output:
	// trail matches at [[3,6)]
}

// ExampleQueryCacheConfig sizes the query-result cache, then shows
// MBR-scoped invalidation at work: a write far from a cached query's
// region keeps the hit alive, a write inside it recomputes.
func ExampleQueryCacheConfig() {
	db, err := mdseq.Open(mdseq.Options{Dim: 2})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	db.SetCache(mdseq.NewQueryCache(mdseq.QueryCacheConfig{MaxEntries: 1024}))

	trail, _ := mdseq.NewSequence("trail", []mdseq.Point{
		{0.10, 0.10}, {0.12, 0.11}, {0.14, 0.13}, {0.16, 0.14},
	})
	if _, err := db.Add(trail); err != nil {
		panic(err)
	}
	query, _ := mdseq.NewSequence("q", trail.Points[1:3])
	search := func() {
		_, st, err := db.Search(query, 0.05)
		if err != nil {
			panic(err)
		}
		fmt.Println("cached:", st.CacheHit)
	}
	search() // computes and fills the cache
	search() // served from memory

	// A write far from the query's region cannot change its answer, so
	// the entry keeps serving; a write inside the region invalidates it.
	far, _ := mdseq.NewSequence("far", []mdseq.Point{{0.90, 0.90}, {0.92, 0.91}})
	if _, err := db.Add(far); err != nil {
		panic(err)
	}
	search()
	near, _ := mdseq.NewSequence("near", trail.Points[0:2])
	if _, err := db.Add(near); err != nil {
		panic(err)
	}
	search()
	// Output:
	// cached: false
	// cached: true
	// cached: true
	// cached: false
}

// ExampleD demonstrates the sliding sequence distance of Definitions 2-3.
func ExampleD() {
	long, _ := mdseq.NewSequence("long", []mdseq.Point{
		{0.9}, {0.8}, {0.1}, {0.2}, {0.3}, {0.9},
	})
	short, _ := mdseq.NewSequence("short", []mdseq.Point{
		{0.1}, {0.2}, {0.3},
	})
	fmt.Printf("%.2f\n", mdseq.D(short, long))

	offset, _ := mdseq.BestAlignment(short.Points, long.Points)
	fmt.Println(offset)
	// Output:
	// 0.00
	// 2
}

// ExamplePartition shows the MCOST segmentation splitting at a jump.
func ExamplePartition() {
	seq, _ := mdseq.NewSequence("two-clusters", []mdseq.Point{
		{0.10, 0.10}, {0.11, 0.10}, {0.12, 0.11},
		{0.80, 0.85}, {0.81, 0.86}, {0.82, 0.86},
	})
	mbrs, err := mdseq.Partition(seq, mdseq.DefaultPartitionConfig())
	if err != nil {
		panic(err)
	}
	for _, m := range mbrs {
		fmt.Printf("[%d,%d)\n", m.Start, m.End)
	}
	// Output:
	// [0,3)
	// [3,6)
}

// ExampleDmbr evaluates the paper's Definition 4 on two separated MBRs.
func ExampleDmbr() {
	seqA, _ := mdseq.NewSequence("a", []mdseq.Point{{0.1, 0.1}, {0.2, 0.2}})
	seqB, _ := mdseq.NewSequence("b", []mdseq.Point{{0.5, 0.2}, {0.6, 0.1}})
	cfg := mdseq.DefaultPartitionConfig()
	ma, _ := mdseq.Partition(seqA, cfg)
	mb, _ := mdseq.Partition(seqB, cfg)
	fmt.Printf("%.1f\n", mdseq.Dmbr(ma[0].Rect, mb[0].Rect))
	// Output:
	// 0.3
}
