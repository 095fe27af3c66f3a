package store

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/pager"
	"repro/internal/rtree"
)

// writeIndexWithRefs replaces the index file at path with an R*-tree over
// segs' MBRs whose refs ref chooses: the same entry count as the corpus,
// so only the refs can tell it apart from the index Build wrote.
func writeIndexWithRefs(t *testing.T, path string, segs []*core.Segmented, ref func(i, j int) rtree.Ref) {
	t.Helper()
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	pg, err := pager.Open(pager.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.New(rtree.Options{Dim: segs[0].Seq.Dim(), Pager: pg})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range segs {
		for j, m := range g.MBRs {
			if err := tr.Insert(m.Rect, ref(i, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReattachRefusesForeignRefs is the regression test for an index.db
// whose entry count matches the corpus but whose refs do not name its
// MBRs. The reattach compared only the count, adopted the index, and the
// first search that reached a ref past the directory panicked (slice
// bounds out of range [:1001] with capacity 20). Now the reattach checks
// every ref, refuses the index, and Load rebuilds it: the search answers
// as a fresh store would, and a second Load reattaches to the rebuilt
// file.
func TestReattachRefusesForeignRefs(t *testing.T) {
	seqs := corpusSeqs(11, 20, 3)
	cfg := core.DefaultPartitionConfig()
	segs, err := core.PartitionAll(seqs, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := &core.Sequence{Points: seqs[4].Points[5:30]}
	refs := []struct {
		name string
		ref  func(i, j int) rtree.Ref
	}{
		{"sequences 1000 and up", func(i, j int) rtree.Ref { return rtree.PackRef(uint32(1000+i), uint32(j)) }},
		{"MBR ordinals past the sequence's", func(i, j int) rtree.Ref { return rtree.PackRef(uint32(i), uint32(j+100)) }},
		{"every entry one pair", func(i, j int) rtree.Ref { return rtree.PackRef(0, 0) }},
	}
	for _, format := range []string{"v2", "v1"} {
		for _, rc := range refs {
			dir := filepath.Join(t.TempDir(), format)
			if format == "v2" {
				if err := Build(dir, seqs, cfg); err != nil {
					t.Fatal(err)
				}
			} else {
				writeV1Dir(t, dir, seqs, cfg)
			}
			writeIndexWithRefs(t, filepath.Join(dir, indexFile), segs, rc.ref)
			for round := 0; round < 2; round++ {
				db, err := Load(dir, true)
				if err != nil {
					t.Fatalf("%s, %s, load %d: %v", format, rc.name, round, err)
				}
				res, err := db.Do(context.Background(), core.Query{Seq: q, Eps: 0.05})
				db.Close()
				if err != nil {
					t.Fatalf("%s, %s, load %d: search: %v", format, rc.name, round, err)
				}
				found := false
				for _, m := range res.Matches {
					found = found || m.Seq.Label == seqs[4].Label
				}
				if !found {
					t.Fatalf("%s, %s, load %d: the query's source sequence is not in the answer (%d matches)",
						format, rc.name, round, len(res.Matches))
				}
			}
		}
	}
}

// TestReadSegmentsAllocs gates the slab decode: ReadSegments makes the
// same number of allocations for a 100-sequence file as for a
// 1 000-sequence one, because every per-sequence header is cut from one
// slab per column. The per-sequence decode made 621 and 6 111. On a host
// that maps the file the count is exactly readSegmentsAllocs.
func TestReadSegmentsAllocs(t *testing.T) {
	mapped := true
	allocs := func(n int) float64 {
		seqs := corpusSeqs(int64(n), n, 3)
		segs, err := core.PartitionAll(seqs, 3, core.DefaultPartitionConfig())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), segFile)
		if err := WriteSegments(path, 3, core.DefaultPartitionConfig(), segs); err != nil {
			t.Fatal(err)
		}
		// With the collector off: the work the runtime runs after each
		// cycle allocates too, and a larger file brings more cycles.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() {
			c, err := ReadSegments(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped = mapped && c.Mapped
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("ReadSegments allocations: %v for 100 sequences, %v for 1000", small, large)
	if small != large {
		t.Errorf("ReadSegments makes %v allocations for 100 sequences and %v for 1000; want the same", small, large)
	}
	if mapped && small != readSegmentsAllocs {
		t.Errorf("ReadSegments makes %v allocations; want %d", small, readSegmentsAllocs)
	}
}

// readSegmentsAllocs is what ReadSegments allocates for a mapped file: 20
// while the decode cut a point header per point from a slab, one fewer
// since a sequence is its coordinates. (The section table now carries the
// payloads, one allocation where two parallel slices were, and pays for
// the read buffer the points check takes instead of the mapping.) 18 since
// the points check's goroutine takes its section by value: capturing the
// section table would move the table's slice header to the heap.
const readSegmentsAllocs = 18

// FuzzReadSegments feeds the segment decoder arbitrary files: every input
// either decodes or fails with ErrBadStore, none panics, and none makes
// the decoder allocate more than a small multiple of the file's own size
// — a header's counts size the slabs only once the layout check has tied
// them to the sections' byte lengths. The seeds are a valid file and the
// corruptions TestReadSegmentsRejectsCorruption makes of it.
func FuzzReadSegments(f *testing.F) {
	_, good := writeGoodSegments(f, f.TempDir())
	f.Add(good)
	for _, c := range corruptions(good) {
		f.Add(c.file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := alignedBytes(len(data))
		copy(buf, data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := decodeSegments(buf, nil)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrBadStore) {
			t.Fatalf("err = %v, want ErrBadStore", err)
		}
		if err == nil && (len(c.Segs) == 0 || c.Dim < 1) {
			t.Fatalf("decoded an empty corpus: %d sequences, dim %d", len(c.Segs), c.Dim)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}

// corruptions returns damaged copies of a valid segment file, by name,
// each of which the reader must refuse with ErrBadStore.
func corruptions(good []byte) []corruption {
	edit := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		fn(b)
		return b
	}
	flip := func(off int) []byte {
		return edit(func(b []byte) {
			if off < 0 {
				off += len(b)
			}
			b[off] ^= 0xff
		})
	}
	return []corruption{
		{"empty file", nil},
		{"truncated header", good[:segHeaderLen/2]},
		{"header only", good[:segHeaderLen]},
		{"bad magic", flip(0)},
		{"bad version", flip(8)},
		{"zero dim", edit(func(b []byte) { binary.LittleEndian.PutUint32(b[12:16], 0) })},
		{"huge dim", edit(func(b []byte) { binary.LittleEndian.PutUint32(b[12:16], 1<<30) })},
		{"header CRC flipped", flip(76)},
		{"nseqs inflated", edit(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<40) })},
		{"truncated tail", good[:len(good)-8]},
		{"trailing garbage", append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0)},
		{"seqdir payload flipped", flip(segHeaderLen + secHeaderLen)},
		{"points payload flipped (mid-file)", flip(len(good) / 2)},
		{"last payload byte flipped", flip(-1)},
	}
}

// corruption is one damaged segment file.
type corruption struct {
	name string
	file []byte
}
