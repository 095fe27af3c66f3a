package txn

// Online-ingest benchmark: reader latency under sustained writes, on
// the two write paths the stack offers. The "locked" path is a plain
// *core.Database — readers and writers contend on the database mutex,
// so every append stalls every concurrent search. The "snapshot" path
// is the same workload through *txn.DB — readers pin an immutable MVCC
// snapshot and never take the write lock, so appends and searches
// proceed independently.
//
// The measured quantity is reader latency (P50/P99) for a fixed query
// stream while writer goroutines append without pause; the test logs
// both paths' numbers.

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

const (
	ingestBenchCorpus  = 48
	ingestBenchSeqLen  = 64
	ingestBenchWriters = 2
	// ingestBenchOps is the fixed per-writer write budget. Both paths
	// absorb the identical workload; what differs is how long that takes
	// (writers starve behind the lock on the locked path) and what
	// readers experience meanwhile. A rate pace instead of a budget would
	// make the runs incomparable: the path that starves writers would
	// also end up with a smaller corpus and artificially fast reads.
	ingestBenchOps = 600
	// ingestBenchPace throttles each writer to one operation per tick so
	// the offered load is sustained rather than a burst.
	ingestBenchPace = 300 * time.Microsecond
)

// ingestSearcher is the read/write surface both paths share.
type ingestSearcher interface {
	Add(*core.Sequence) (uint32, error)
	AppendPoints(uint32, []geom.Point) error
	SearchCtx(context.Context, *core.Sequence, float64) ([]core.Match, core.SearchStats, error)
}

// ingestFixture loads the shared corpus and builds the query pool
// (windows of stored sequences, so every query does real phase-3 work).
func ingestFixture(t *testing.T, db ingestSearcher) ([]uint32, []*core.Sequence) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	seqs := make([]*core.Sequence, ingestBenchCorpus)
	ids := make([]uint32, ingestBenchCorpus)
	for i := range seqs {
		seqs[i] = randSeq(rng, 3, ingestBenchSeqLen)
		id, err := db.Add(clonePoints(seqs[i]))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	pool := make([]*core.Sequence, 32)
	for i := range pool {
		src := seqs[i%len(seqs)]
		off := (i * 3) % (ingestBenchSeqLen - 24)
		pool[i] = &core.Sequence{Points: src.Points[off : off+24]}
	}
	return ids, pool
}

// runIngestWorkload has each writer land its fixed budget of paced
// operations while the reader queries continuously. It returns the
// latencies of queries issued while writes were in flight, and the wall
// time the path needed to absorb the whole write workload.
func runIngestWorkload(t *testing.T, db ingestSearcher, ids []uint32, pool []*core.Sequence) ([]time.Duration, time.Duration) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < ingestBenchWriters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tick := time.NewTicker(ingestBenchPace)
			defer tick.Stop()
			for n := 0; n < ingestBenchOps; n++ {
				<-tick.C
				if n%4 == 3 {
					if _, err := db.Add(randSeq(rng, 3, 24)); err != nil {
						t.Error(err)
						return
					}
				} else {
					id := ids[rng.Intn(len(ids))]
					if err := db.AppendPoints(id, randSeq(rng, 3, 4).Points); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w) + 101)
	}
	go func() { wg.Wait(); close(done) }()

	var lat []time.Duration
	ctx := context.Background()
	for i := 0; ; i++ {
		select {
		case <-done:
			return lat, time.Since(t0)
		default:
		}
		q := pool[i%len(pool)]
		q0 := time.Now()
		if _, _, err := db.SearchCtx(ctx, q, 0.25); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		lat = append(lat, time.Since(q0))
	}
}

func percentile(lat []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// TestIngestReaderLatency measures reader P50/P99 under sustained
// appends on the locked path (plain core.Database) and the snapshot
// path (txn.DB). Both paths must answer every query; the comparison is
// logged. No relative-speed assertion is made — CI machines are too noisy
// for that.
func TestIngestReaderLatency(t *testing.T) {
	type result struct {
		Queries, Writes                  int
		IngestMs, P50Us, P99Us, MaxUs    float64
		ReaderQPS, OfferedMs, WriteStall float64
	}
	// offered is the wall time the write workload would take with no
	// contention at all: each writer's ops at its pace, in parallel.
	offered := time.Duration(ingestBenchOps) * ingestBenchPace
	measure := func(name string, db ingestSearcher) result {
		ids, pool := ingestFixture(t, db)
		lat, wall := runIngestWorkload(t, db, ids, pool)
		if len(lat) == 0 {
			t.Fatalf("%s: no queries completed during ingest", name)
		}
		var total time.Duration
		for _, d := range lat {
			total += d
		}
		r := result{
			Queries:    len(lat),
			Writes:     ingestBenchWriters * ingestBenchOps,
			IngestMs:   float64(wall) / float64(time.Millisecond),
			P50Us:      float64(percentile(lat, 0.50)) / float64(time.Microsecond),
			P99Us:      float64(percentile(lat, 0.99)) / float64(time.Microsecond),
			MaxUs:      float64(percentile(lat, 1.0)) / float64(time.Microsecond),
			ReaderQPS:  float64(len(lat)) / total.Seconds(),
			OfferedMs:  float64(offered) / float64(time.Millisecond),
			WriteStall: float64(wall) / float64(offered),
		}
		t.Logf("%s: ingest of %d writes took %.0fms (%.1fx offered); readers: %d queries, P50 %.0fµs P99 %.0fµs max %.0fµs, %.0f q/s",
			name, r.Writes, r.IngestMs, r.WriteStall, r.Queries, r.P50Us, r.P99Us, r.MaxUs, r.ReaderQPS)
		return r
	}

	locked, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer locked.Close()
	rLocked := measure("locked", locked)

	snapBase, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Wrap(snapBase, Options{CheckpointEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	rSnap := measure("snapshot", snap)

	if rLocked.Queries == 0 || rSnap.Queries == 0 {
		t.Fatalf("a path answered no queries during ingest (locked=%d snapshot=%d)",
			rLocked.Queries, rSnap.Queries)
	}
}
