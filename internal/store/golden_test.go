package store

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/seqio"
	"repro/internal/shard"
)

// goldenSeqs regenerates the six sequences the v1 fixtures under
// testdata/ were written from. The fixtures are the bytes the v1 writers
// produced at 413243b, the last commit that had them: testdata/v1store by
// SaveFormat(db, dir, FormatV1), testdata/v1sharded by
// SaveShardedFormat over three shards.
func goldenSeqs() []*core.Sequence {
	seqs := make([]*core.Sequence, 6)
	for i := range seqs {
		pts := make([]geom.Point, 12+4*i)
		for j := range pts {
			pts[j] = geom.Point{float64((13*i+2*j)%100) / 100, float64((29*i+j*j/4)%100) / 100, float64((7*i+3*j)%50) / 50}
		}
		seqs[i] = &core.Sequence{Label: fmt.Sprintf("g%d", i), Points: pts}
	}
	return seqs
}

// writeV1Dir lays out a v1 store directory — what a store written before
// v2 became the only written format looks like on disk.
func writeV1Dir(t *testing.T, dir string, seqs []*core.Sequence, cfg core.PartitionConfig) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteFile(filepath.Join(dir, seqFile), seqs); err != nil {
		t.Fatal(err)
	}
	if err := writeMeta(dir, seqs[0].Dim(), cfg); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the directory src into a fresh temporary directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// doer is the query entry point *core.Database and *shard.ShardedDB share.
type doer interface {
	Do(ctx context.Context, q core.Query) (core.Result, error)
}

// assertAnswersIdentical requires got to answer Scan, Range and KNN
// queries bit-equal to want: same ids and labels in the same order, every
// distance equal as bits, equal offsets and solution intervals.
func assertAnswersIdentical(t *testing.T, ctx string, want, got doer, queries []*core.Sequence) {
	t.Helper()
	for qi, q := range queries {
		for _, query := range []core.Query{
			{Seq: q, Kind: core.Scan, Eps: 0.3},
			{Seq: q, Kind: core.Range, Eps: 0.05},
			{Seq: q, Kind: core.Range, Eps: 0.3},
			{Seq: q, Kind: core.KNN, K: 4},
		} {
			a, err := want.Do(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Do(context.Background(), query)
			if err != nil {
				t.Fatalf("%s q%d kind %v: %v", ctx, qi, query.Kind, err)
			}
			if len(a.Matches) != len(b.Matches) {
				t.Fatalf("%s q%d kind %v eps %v: %d vs %d matches", ctx, qi, query.Kind, query.Eps, len(a.Matches), len(b.Matches))
			}
			for i, m := range a.Matches {
				g := b.Matches[i]
				if m.SeqID != g.SeqID || m.Seq.Label != g.Seq.Label || m.Offset != g.Offset ||
					math.Float64bits(m.Dist) != math.Float64bits(g.Dist) ||
					math.Float64bits(m.MinDnorm) != math.Float64bits(g.MinDnorm) ||
					m.Interval.String() != g.Interval.String() {
					t.Fatalf("%s q%d kind %v eps %v match %d: want %+v, got %+v", ctx, qi, query.Kind, query.Eps, i, m, g)
				}
			}
		}
	}
}

// TestReadsV1Golden pins the v1 readers against bytes the deleted v1
// writers wrote: both committed fixtures load — exact, with the inert
// quantized option, and file-indexed — and answer bit-equal to a database
// freshly built from the same sequences.
func TestReadsV1Golden(t *testing.T) {
	seqs := goldenSeqs()
	ref, err := core.NewDatabase(core.Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	sref, err := shard.New(core.Options{Dim: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sref.Close()
	if _, err := sref.AddAll(seqs); err != nil {
		t.Fatal(err)
	}
	queries := []*core.Sequence{
		{Points: seqs[1].Points[2:10]},
		{Points: seqs[4].Points[5:24]},
		{Points: seqs[5].Points},
	}

	for _, o := range []LoadOptions{{}, {Quantized: true}, {FileIndex: true}} {
		single, sharded := "testdata/v1store", "testdata/v1sharded"
		if o.FileIndex { // index pages are written beside the data
			single, sharded = copyTree(t, single), copyTree(t, sharded)
		}
		db, err := LoadWith(single, o)
		if err != nil {
			t.Fatalf("v1 store, %+v: %v", o, err)
		}
		assertAnswersIdentical(t, fmt.Sprintf("v1 store %+v", o), ref, db, queries)
		db.Close()

		sdb, err := LoadShardedWith(sharded, o)
		if err != nil {
			t.Fatalf("v1 sharded store, %+v: %v", o, err)
		}
		if sdb.Shards() != 3 || sdb.Len() != len(seqs) {
			t.Fatalf("v1 sharded store: %d shards, %d sequences", sdb.Shards(), sdb.Len())
		}
		assertAnswersIdentical(t, fmt.Sprintf("v1 sharded store %+v", o), sref, sdb, queries)
		sdb.Close()
	}
}
