package mdseq_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// preparedCorpus is a small video-shaped corpus and a query cut from it.
func preparedCorpus(t *testing.T, n int) ([]*core.Sequence, *core.Sequence) {
	t.Helper()
	cfg := experiment.PaperVideo()
	cfg.NumSequences = n
	seqs, err := experiment.GenerateData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := seqs[3]
	return seqs, &core.Sequence{Label: "q", Points: src.Points[5 : 5+min(60, src.Len()-5)]}
}

// load adds clones of seqs to db.
func load(t *testing.T, db interface {
	AddAll([]*core.Sequence) ([]uint32, error)
}, seqs []*core.Sequence) {
	t.Helper()
	batch := make([]*core.Sequence, len(seqs))
	for i, s := range seqs {
		batch[i] = s.Clone()
	}
	if _, err := db.AddAll(batch); err != nil {
		t.Fatal(err)
	}
}

// txnNodes opens n in-memory transactional nodes that never fold on their
// own: what is added after the base is built stays in their deltas.
func txnNodes(t *testing.T, n int, cfg core.PartitionConfig) []*txn.DB {
	t.Helper()
	nodes := make([]*txn.DB, n)
	for i := range nodes {
		base, err := core.NewDatabase(core.Options{Dim: 3, Partition: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if nodes[i], err = txn.Wrap(base, txn.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// TestPreparedOncePerQuery: a query's segmentation (under D) or envelopes
// (under DTW) are built once per query, whatever answers it — four
// in-memory shards, four transactional shards with unfolded writes, one
// transactional node whose base and delta pass both read the query — and
// the answers are the one database's; and a batch of range queries on each
// of them is prepared once per member, up front, and built once per
// distinct query.
func TestPreparedOncePerQuery(t *testing.T) {
	seqs, q := preparedCorpus(t, 64)
	one, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	load(t, one, seqs)

	mem, err := shard.New(core.Options{Dim: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	load(t, mem, seqs)

	// Half the corpus folded into the bases, half in the deltas.
	tn := txnNodes(t, 4, core.DefaultPartitionConfig())
	nodes := make([]shard.Node, len(tn))
	for i, n := range tn {
		nodes[i] = n
	}
	durable, err := shard.NewWithNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	load(t, durable, seqs[:32])
	for _, n := range tn {
		if err := n.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	load(t, durable, seqs[32:])

	node := txnNodes(t, 1, core.DefaultPartitionConfig())[0]
	defer node.Close()
	load(t, node, seqs[:32])
	if err := node.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load(t, node, seqs[32:])

	dtw := core.MetricDTW{Window: -1}
	queries := []struct {
		name string
		q    core.Query
	}{
		{"range", core.Query{Seq: q, Eps: 0.2}},
		{"d range", core.Query{Seq: q, Eps: 0.2, Metric: core.MetricD{}}},
		{"d knn", core.Query{Seq: q, Kind: core.KNN, K: 5}},
		{"dtw knn", core.Query{Seq: q, Kind: core.KNN, K: 5, Metric: dtw}},
		{"dtw range", core.Query{Seq: q, Eps: 0.3, Metric: dtw}},
	}
	ctx := context.Background()
	for _, layer := range []struct {
		name string
		do   func(context.Context, core.Query) (core.Result, error)
	}{
		{"4 shards", mem.Do},
		{"4 txn shards with deltas", durable.Do},
		{"txn node with a delta", node.Do},
	} {
		for _, c := range queries {
			want, err := one.Do(ctx, c.q)
			if err != nil {
				t.Fatal(err)
			}
			before := core.PreparedBuilds()
			got, err := layer.do(ctx, c.q)
			if err != nil {
				t.Fatalf("%s, %s: %v", layer.name, c.name, err)
			}
			if n := core.PreparedBuilds() - before; n != 1 {
				t.Errorf("%s, %s: the query side was built %d times, want once", layer.name, c.name, n)
			}
			if g, w := answerKeys(got), answerKeys(want); len(w) == 0 || !slices.Equal(g, w) {
				t.Fatalf("%s, %s: answer %v, one database's %v", layer.name, c.name, g, w)
			}
		}

		// A batch prepares its members up front and hands Do the prepared
		// queries: Do checks none of them again, and a query asked twice is
		// built once.
		q2 := &core.Sequence{Label: "q2", Points: seqs[9].Points[:min(40, seqs[9].Len())]}
		batch := []*core.Sequence{q, q2, q}
		handed := func(ctx context.Context, bq core.Query) (core.Result, error) {
			if _, own, err := core.Prepare(bq, 3, core.DefaultPartitionConfig()); err != nil || own != nil {
				own.Release()
				t.Errorf("%s, batch: Do was handed a query not prepared for it (err %v)", layer.name, err)
			}
			return layer.do(ctx, bq)
		}
		before := core.PreparedBuilds()
		got, _, err := core.DoBatch(ctx, handed, 3, core.DefaultPartitionConfig(), batch, 0.2)
		if err != nil {
			t.Fatalf("%s, batch: %v", layer.name, err)
		}
		if n := core.PreparedBuilds() - before; n != 2 {
			t.Errorf("%s, batch: %d query sides built for two distinct queries, want 2", layer.name, n)
		}
		for i, bq := range batch {
			want, err := one.Do(ctx, core.Query{Seq: bq, Eps: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := answerKeys(core.Result{Matches: got[i]}), answerKeys(want); len(w) == 0 || !slices.Equal(g, w) {
				t.Fatalf("%s, batch member %d: answer %v, one database's %v", layer.name, i, g, w)
			}
		}
	}
}

// answerKeys is an answer as labels and distances, sorted: sharded ids
// differ from one database's by design.
func answerKeys(res core.Result) []string {
	keys := make([]string, len(res.Matches))
	for i, m := range res.Matches {
		keys[i] = fmt.Sprintf("%s@%x", m.Seq.Label, math.Float64bits(m.Dist))
	}
	slices.Sort(keys)
	return keys
}

// TestPreparedMismatchRefused: a query prepared for another partitioning
// or another dimension is refused by every layer with a
// *core.PreparedMismatchError — its segmentation was cut by another rule —
// and so is a node of another partitioning by the router. The delta pass
// (core.Unindexed) is given a partitioning, not a dimension: it refuses the
// other partitioning.
func TestPreparedMismatchRefused(t *testing.T) {
	seqs, q := preparedCorpus(t, 16)
	other := core.PartitionConfig{QueryExtent: 0.5, MaxPoints: 16}

	db, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	load(t, db, seqs)
	sh, err := shard.New(core.Options{Dim: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	load(t, sh, seqs)
	tx := txnNodes(t, 1, core.PartitionConfig{})[0]
	defer tx.Close()
	load(t, tx, seqs) // unfolded: a delta
	empty := txnNodes(t, 1, core.PartitionConfig{})[0]
	defer empty.Close()
	snap := tx.Acquire()
	defer snap.Release()

	q2 := &core.Sequence{Label: "q2", Points: []geom.Point{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.5}}}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		q    core.Query
		dim  int
		cfg  core.PartitionConfig
	}{
		{"another partitioning", core.Query{Seq: q, Eps: 0.2}, 3, other},
		{"another partitioning, dtw knn", core.Query{Seq: q, Kind: core.KNN, K: 3, Metric: core.MetricDTW{Window: 4}}, 3, other},
		{"another dimension", core.Query{Seq: q2, Kind: core.KNN, K: 3}, 2, core.DefaultPartitionConfig()},
	} {
		pq, own, err := core.Prepare(c.q, c.dim, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range []struct {
			name string
			do   func(context.Context, core.Query) (core.Result, error)
		}{
			{"database", db.Do}, {"router", sh.Do}, {"txn node", tx.Do}, {"txn snapshot", snap.Do}, {"txn node without a delta", empty.Do},
			{"delta pass", func(ctx context.Context, q core.Query) (core.Result, error) {
				_, err := core.Unindexed(ctx, q, core.DefaultPartitionConfig(), nil, nil, new(core.SearchStats))
				return core.Result{}, err
			}},
		} {
			if layer.name == "delta pass" && c.dim != 3 {
				continue
			}
			_, err := layer.do(ctx, pq)
			var mm *core.PreparedMismatchError
			if !errors.As(err, &mm) {
				t.Errorf("%s, %s: err = %v, want a *core.PreparedMismatchError", c.name, layer.name, err)
				continue
			}
			if mm.PreparedDim != c.dim || mm.PreparedConfig != c.cfg || mm.Dim != 3 || mm.Config != core.DefaultPartitionConfig() {
				t.Errorf("%s, %s: refusal %+v does not name both sides", c.name, layer.name, mm)
			}
		}
		own.Release()
	}

	nodes := []shard.Node{txnNodes(t, 1, core.PartitionConfig{})[0], txnNodes(t, 1, other)[0]}
	if _, err := shard.NewWithNodes(nodes); err == nil {
		t.Fatal("the router accepted a node partitioning by another rule")
	} else if want := fmt.Sprintf("%+v", other); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("%+v", core.DefaultPartitionConfig())) {
		t.Fatalf("refusal %q does not name both configs", err)
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestPreparedSharedBesideWriters runs D and DTW kNN and range clients
// beside writers on four transactional shards, so that every query's one
// prepared form is read by four shards at once — their base and delta
// passes included — while commits move the deltas. Under -race a write to
// the shared form, or a read of it after its release, is reported; every
// answer is checked for its order.
func TestPreparedSharedBesideWriters(t *testing.T) {
	seqs, _ := preparedCorpus(t, 96)
	tn := txnNodes(t, 4, core.PartitionConfig{})
	nodes := make([]shard.Node, len(tn))
	for i, n := range tn {
		nodes[i] = n
	}
	db, err := shard.NewWithNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	load(t, db, seqs)

	const clients, writers, run = 4, 2, 600 * time.Millisecond
	var stop atomic.Bool
	var answered atomic.Int64
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
				n := min(20+rng.Intn(40), src.Len())
				off := rng.Intn(src.Len() - n + 1)
				q := core.Query{Seq: &core.Sequence{Label: "q", Points: src.Points[off : off+n]}, Kind: core.KNN, K: 5, Metric: m}
				if c >= 2 {
					q.Kind, q.Eps = core.Range, 0.1
				}
				res, err := db.Do(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				for i := 1; i < len(res.Matches); i++ {
					a, b := res.Matches[i-1], res.Matches[i]
					if (q.Kind == core.KNN && (a.Dist > b.Dist || a.Dist == b.Dist && a.SeqID > b.SeqID)) ||
						(q.Kind == core.Range && a.SeqID >= b.SeqID) {
						errs <- fmt.Errorf("client %d: answer out of order at %d", c, i)
						return
					}
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
				if _, err := db.Add(s); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(run)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if answered.Load() == 0 {
		t.Fatal("no query answered")
	}
}
