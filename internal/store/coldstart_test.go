package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// TestColdStartSpeedup is the headline perf gate for the v2 segment
// format: on a ≥100k-point corpus, opening the zero-copy columnar store
// must be at least 10× faster than the v1 path (which re-parses every
// record, re-runs MCOST partitioning, and re-sorts the R*-tree build).
func TestColdStartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-start corpus build is slow; skipped with -short")
	}
	const dim, nseq, ptsPer = 8, 500, 220 // 110k points
	rng := rand.New(rand.NewSource(2026))
	seqs := make([]*core.Sequence, nseq)
	for i := range seqs {
		seqs[i] = walkSeqD(rng, fmt.Sprintf("cold-%04d", i), ptsPer, dim)
	}
	var npoints int
	for _, s := range seqs {
		npoints += s.Len()
	}
	if npoints < 100_000 {
		t.Fatalf("corpus too small: %d points", npoints)
	}
	cfg := core.DefaultPartitionConfig()

	root := t.TempDir()
	v1dir := filepath.Join(root, "v1")
	v2dir := filepath.Join(root, "v2")
	if err := Build(v2dir, seqs, cfg); err != nil {
		t.Fatal(err)
	}
	writeV1Dir(t, v1dir, seqs, cfg)

	// Cold open to a file-indexed, queryable database. The v2 store dir
	// carries its packed index pages from save time, so its cold open is
	// a reattach; the v1 format has no index pages, so its cold open
	// re-parses, re-partitions, and rebuilds the tree — scrub the index
	// cache a previous round left so every round is a true cold start.
	const rounds = 3
	openBest := func(dir string) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < rounds; i++ {
			if dir == v1dir {
				os.Remove(filepath.Join(dir, "index.db"))
				os.Remove(filepath.Join(dir, "index.db.wal"))
			}
			t0 := time.Now()
			db, err := Load(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			db.Close()
		}
		return best
	}
	v1Open := openBest(v1dir)
	v2Open := openBest(v2dir)
	openSpeedup := float64(v1Open) / float64(v2Open)
	t.Logf("open %d seqs / %d points: v1 %v, v2 %v, speedup %.1fx", nseq, npoints, v1Open, v2Open, openSpeedup)
	if openSpeedup < 10 {
		t.Errorf("v2 cold open speedup %.1fx < 10x (v1 %v, v2 %v)", openSpeedup, v1Open, v2Open)
	}
}
