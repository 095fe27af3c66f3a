package mdseq_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	mdseq "repro"
	"repro/internal/cache"
	"repro/internal/shard"
	"repro/internal/txn"
)

// TestShardedCacheBudgetIsWholeCache attaches one cache of E entries and B
// bytes to 1- and 4-shard routers over plain and over transactional nodes,
// asks more than E distinct queries, and holds the router to one cache tier:
// no shard node holds a cache, and the entries and bytes of every cache the
// router reaches sum to at most E and B.
func TestShardedCacheBudgetIsWholeCache(t *testing.T) {
	const (
		maxEntries = 32
		maxBytes   = 24 << 10
	)
	plain := func(n int) []shard.Node {
		nodes := make([]shard.Node, n)
		for i := range nodes {
			db, err := mdseq.Open(mdseq.Options{Dim: 3})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = db
		}
		return nodes
	}
	durable := func(n int) []shard.Node {
		nodes := make([]shard.Node, n)
		for i := range nodes {
			db, err := txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = db
		}
		return nodes
	}
	for _, tp := range []struct {
		name  string
		nodes func(int) []shard.Node
	}{{"core", plain}, {"txn", durable}} {
		for _, n := range []int{1, 4} {
			name := fmt.Sprintf("%s/%d", tp.name, n)
			sdb, err := shard.NewWithNodes(tp.nodes(n))
			if err != nil {
				t.Fatal(err)
			}
			defer sdb.Close()
			rng := rand.New(rand.NewSource(33))
			seqs := make([]*mdseq.Sequence, 40)
			for i := range seqs {
				seqs[i] = walk(rng, 20+rng.Intn(60))
				seqs[i].Label = fmt.Sprintf("s%02d", i)
			}
			if _, err := sdb.AddAll(seqs); err != nil {
				t.Fatal(err)
			}
			sdb.SetCache(cache.New(cache.Config{MaxEntries: maxEntries, MaxBytes: maxBytes}))
			for i := 0; i < 3*maxEntries; i++ {
				s := seqs[i%len(seqs)]
				q := mdseq.Query{Seq: &mdseq.Sequence{Points: s.Points[i%7 : i%7+12]}, Eps: 0.2}
				if i%3 == 2 {
					q = mdseq.Query{Seq: q.Seq, Kind: mdseq.KNN, K: 1 + i%5}
				}
				if _, err := sdb.Do(context.Background(), q); err != nil {
					t.Fatalf("%s query %d: %v", name, i, err)
				}
			}
			entries, bytes := sdb.QueryCache().Len(), sdb.QueryCache().Bytes()
			if entries == 0 {
				t.Fatalf("%s: the router cached nothing", name)
			}
			for i := 0; i < sdb.Shards(); i++ {
				if c := sdb.Shard(i).QueryCache(); c != nil {
					t.Errorf("%s: shard %d holds a cache of its own", name, i)
					entries, bytes = entries+c.Len(), bytes+c.Bytes()
				}
			}
			if entries > maxEntries || bytes > maxBytes {
				t.Errorf("%s: the router's caches hold %d entries and %d bytes, the budget is %d and %d",
					name, entries, bytes, maxEntries, maxBytes)
			}
		}
	}
}
