package mdseq_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/txn"
)

// TestShardedKNNWithWritersNoDeadlock runs D and DTW kNN clients beside
// writers on 2 and 4 in-memory shards and on 2 transactional shards whose
// checkpoints fold while it runs, and requires every client and writer to
// finish within a deadline. The shards of a kNN scatter meet once (see
// shard's knnScatter), a waiting search holds its shard's read lock, and a
// reader queued behind a pending writer must not be waited for: two queries
// whose searches each wait on a sibling queued behind the other's shard's
// writer would hang for good. core.Database.Do therefore leaves the
// rendezvous before it blocks on its lock; without that rule this test hangs.
//
// The load runs for run, and on the transactional shards until each has
// folded at least once. A fold takes the base's write lock once per delta
// op, and each acquisition waits for the searches in flight, so under
// -race the first fold of about 80 adds and their appends took 1.6–1.8 s,
// longer than run.
func TestShardedKNNWithWritersNoDeadlock(t *testing.T) {
	cfg := experiment.PaperVideo()
	cfg.NumSequences = 160
	seqs, err := experiment.GenerateData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// folds counts the checkpoint folds of each txn shard so far.
	var txnNodes []*txn.DB
	folds := func() []uint64 {
		n := make([]uint64, len(txnNodes))
		for i, db := range txnNodes {
			n[i] = db.Stats().Checkpoints
		}
		return n
	}
	// eachFolded reports whether every txn shard has folded since from.
	eachFolded := func(from []uint64) bool {
		for i, n := range folds() {
			if n == from[i] {
				return false
			}
		}
		return true
	}
	topologies := []struct {
		name string
		open func() (*shard.ShardedDB, error)
	}{
		{"core2", func() (*shard.ShardedDB, error) { return shard.New(core.Options{Dim: 3}, 2) }},
		{"core4", func() (*shard.ShardedDB, error) { return shard.New(core.Options{Dim: 3}, 4) }},
		{"txn2", func() (*shard.ShardedDB, error) {
			nodes := make([]shard.Node, 2)
			for i := range nodes {
				db, err := txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true, CheckpointEvery: 4})
				if err != nil {
					return nil, err
				}
				nodes[i] = db
				txnNodes = append(txnNodes, db)
			}
			return shard.NewWithNodes(nodes)
		}},
	}
	const clients, writers, run, deadline = 4, 4, 1500 * time.Millisecond, 60 * time.Second
	for _, tp := range topologies {
		db, err := tp.open()
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]*core.Sequence, len(seqs))
		for i, s := range seqs {
			batch[i] = s.Clone()
		}
		if _, err := db.AddAll(batch); err != nil {
			t.Fatal(err)
		}

		folds0 := folds()
		var stop atomic.Bool
		var answered, written atomic.Int64
		errs := make(chan error, clients+writers)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				var m core.Metric = core.MetricD{}
				if c%2 == 1 {
					m = core.MetricDTW{Window: 16}
				}
				for !stop.Load() {
					src := seqs[rng.Intn(len(seqs))]
					n := min(cfg.QueryMinLen+rng.Intn(cfg.QueryMaxLen-cfg.QueryMinLen+1), src.Len())
					off := rng.Intn(src.Len() - n + 1)
					q := &core.Sequence{Label: "q", Points: src.Points[off : off+n]}
					// No deadline: a context that fires would end a wait
					// and hide the hang this test looks for.
					if _, err := db.Do(context.Background(), core.Query{Seq: q, Kind: core.KNN, K: 10, Metric: m}); err != nil {
						errs <- fmt.Errorf("client %d: %w", c, err)
						return
					}
					answered.Add(1)
				}
			}(c)
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + w)))
				for i := 0; !stop.Load(); i++ {
					s := seqs[rng.Intn(len(seqs))].Clone()
					s.Label = fmt.Sprintf("w%d-%d", w, i)
					id, err := db.Add(s)
					if err == nil {
						err = db.AppendPoints(id, []geom.Point{s.Points[0].Clone(), s.Points[len(s.Points)-1].Clone()})
					}
					if err != nil {
						errs <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					written.Add(1)
				}
			}(w)
		}
		start := time.Now()
		time.Sleep(run)
		for end := time.Now().Add(deadline); !eachFolded(folds0) && time.Now().Before(end); {
			time.Sleep(10 * time.Millisecond)
		}
		stop.Store(true)
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(deadline):
			// The hung goroutines hold the shards' locks: closing would
			// hang too, so the databases are left as they are.
			t.Fatalf("%s: kNN clients and writers still running %v after the stop (%d answers, %d writes): a search waits on a sibling queued behind a writer",
				tp.name, deadline, answered.Load(), written.Load())
		}
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", tp.name, err)
		}
		if answered.Load() == 0 || written.Load() == 0 {
			t.Errorf("%s: %d kNN answers and %d writes in %v; want both above 0", tp.name, answered.Load(), written.Load(), run)
		}
		if !eachFolded(folds0) {
			t.Errorf("%s: a txn shard folded no checkpoint during the run (%v folds before, %v after)", tp.name, folds0, folds())
		}
		t.Logf("%s: %d kNN answers, %d writes, folds %v → %v in %v", tp.name, answered.Load(), written.Load(), folds0, folds(), time.Since(start).Round(time.Millisecond))
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
