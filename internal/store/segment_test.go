package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// walkSeqD is walkSeq for an arbitrary dimensionality.
func walkSeqD(rng *rand.Rand, label string, n, dim int) *core.Sequence {
	pts := make([]geom.Point, n)
	cur := make(geom.Point, dim)
	for k := range cur {
		cur[k] = rng.Float64()
	}
	for i := range pts {
		next := make(geom.Point, dim)
		for k := range next {
			next[k] = math.Min(1, math.Max(0, cur[k]+(rng.Float64()-0.5)*0.08))
		}
		pts[i], cur = next, next
	}
	return &core.Sequence{Label: label, Points: pts}
}

func corpusSeqs(seed int64, n, dim int) []*core.Sequence {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]*core.Sequence, n)
	for i := range seqs {
		seqs[i] = walkSeqD(rng, fmt.Sprintf("seq-%03d", i), 40+rng.Intn(80), dim)
	}
	return seqs
}

func TestSegmentsRoundTrip(t *testing.T) {
	for _, dim := range []int{2, 3, 8} {
		seqs := corpusSeqs(int64(dim), 9, dim)
		cfg := core.DefaultPartitionConfig()
		segs, err := buildSegments(seqs, dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), segFile)
		if err := WriteSegments(path, dim, cfg, segs); err != nil {
			t.Fatal(err)
		}
		c, err := ReadSegments(path)
		if err != nil {
			t.Fatal(err)
		}
		if c.Dim != dim || c.Config != cfg || len(c.Segs) != len(segs) {
			t.Fatalf("dim=%d: corpus header %d/%+v/%d", dim, c.Dim, c.Config, len(c.Segs))
		}
		if c.TreeM <= 0 || len(c.Leaves) == 0 {
			t.Fatalf("dim=%d: no packed leaves (treeM=%d)", dim, c.TreeM)
		}
		for i, g := range c.Segs {
			w := segs[i]
			if g.Seq.Label != w.Seq.Label || g.Seq.Len() != w.Seq.Len() || len(g.MBRs) != len(w.MBRs) {
				t.Fatalf("dim=%d seq %d: shape mismatch", dim, i)
			}
			for j := range g.Flat {
				if g.Flat[j] != w.Flat[j] {
					t.Fatalf("dim=%d seq %d: Flat[%d] differs", dim, i, j)
				}
			}
			for j := range g.Lo {
				if g.Lo[j] != w.Lo[j] || g.Hi[j] != w.Hi[j] {
					t.Fatalf("dim=%d seq %d: bound %d differs", dim, i, j)
				}
			}
			for j, p := range g.Seq.Points {
				for k := range p {
					if p[k] != w.Seq.Points[j][k] {
						t.Fatalf("dim=%d seq %d: point %d differs", dim, i, j)
					}
				}
			}
		}
	}
}

// mutateAt returns a copy of the file with one byte at off flipped.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(b))
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeGoodSegments(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	seqs := corpusSeqs(7, 6, 3)
	cfg := core.DefaultPartitionConfig()
	segs, err := buildSegments(seqs, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segFile)
	if err := WriteSegments(path, 3, cfg, segs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestReadSegmentsRejectsCorruption(t *testing.T) {
	path, good := writeGoodSegments(t, t.TempDir())
	if _, err := ReadSegments(path); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}

	restore := func() {
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		corrupt func()
	}{
		{"empty file", func() { os.WriteFile(path, nil, 0o644) }},
		{"truncated header", func() { os.WriteFile(path, good[:segHeaderLen/2], 0o644) }},
		{"header only", func() { os.WriteFile(path, good[:segHeaderLen], 0o644) }},
		{"bad magic", func() { flipByte(t, path, 0) }},
		{"bad version", func() { flipByte(t, path, 8) }},
		{"zero dim", func() {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[12:16], 0)
			os.WriteFile(path, b, 0o644)
		}},
		{"huge dim", func() {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[12:16], 1<<30)
			os.WriteFile(path, b, 0o644)
		}},
		{"header CRC flipped", func() { flipByte(t, path, 76) }},
		{"nseqs inflated", func() {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			os.WriteFile(path, b, 0o644)
		}},
		{"truncated tail", func() { os.WriteFile(path, good[:len(good)-8], 0o644) }},
		{"trailing garbage", func() { os.WriteFile(path, append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0), 0o644) }},
		{"seqdir payload flipped", func() { flipByte(t, path, int64(segHeaderLen+secHeaderLen)) }},
		{"points payload flipped (mid-file)", func() { flipByte(t, path, int64(len(good)/2)) }},
		{"last payload byte flipped", func() { flipByte(t, path, -1) }},
	}
	for _, tc := range cases {
		restore()
		tc.corrupt()
		c, err := ReadSegments(path)
		if !errors.Is(err, ErrBadStore) {
			t.Errorf("%s: err = %v (corpus %v), want ErrBadStore", tc.name, err, c != nil)
		}
	}

	// Flip one byte in every section header and payload region to shake
	// out any unchecksummed range. Every single-byte corruption must be
	// detected: the header CRC covers the header, each section CRC covers
	// its payload, and section ids/lengths are validated structurally.
	restore()
	step := len(good)/97 + 1
	for off := 0; off < len(good); off += step {
		restore()
		flipByte(t, path, int64(off))
		if _, err := ReadSegments(path); !errors.Is(err, ErrBadStore) {
			t.Fatalf("flip at %d/%d: err = %v, want ErrBadStore", off, len(good), err)
		}
	}
}

// TestReadSegmentsRejectsNonFinite checks that a segment file whose
// checksums are right but whose point or MBR bound columns hold a NaN or
// ±Inf — first value, last value, either sign — is refused with
// ErrBadStore wrapping core.ErrNonFinite: the distance kernels assume
// finite input, and the zero-copy open hands them these columns as they
// are. The largest finite values pass.
func TestReadSegmentsRejectsNonFinite(t *testing.T) {
	path, good := writeGoodSegments(t, t.TempDir())
	nan := math.NaN()
	for _, id := range []uint32{secPoints, secLo, secHi} {
		for _, v := range []float64{nan, -nan, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64} {
			for _, last := range []bool{false, true} {
				b := append([]byte(nil), good...)
				off := segHeaderLen
				for binary.LittleEndian.Uint32(b[off:]) != id {
					off += secHeaderLen + int(pad8(binary.LittleEndian.Uint64(b[off+8:])))
				}
				n := int(binary.LittleEndian.Uint64(b[off+8:]))
				payload := b[off+secHeaderLen : off+secHeaderLen+n]
				at := 0
				if last {
					at = n - 8
				}
				binary.LittleEndian.PutUint64(payload[at:], math.Float64bits(v))
				binary.LittleEndian.PutUint32(b[off+4:], crc32.Checksum(payload, castagnoli))
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := ReadSegments(path)
				if v-v == 0 { // finite, if huge
					if errors.Is(err, core.ErrNonFinite) {
						t.Errorf("section %d with %v: err = %v", id, v, err)
					}
				} else if !errors.Is(err, ErrBadStore) || !errors.Is(err, core.ErrNonFinite) {
					t.Errorf("section %d with %v (last=%v): err = %v, want ErrBadStore wrapping ErrNonFinite", id, v, last, err)
				}
			}
		}
	}
}

func TestBuildMatchesIncrementalIndex(t *testing.T) {
	for _, dim := range []int{2, 4, 8, 16} {
		seqs := corpusSeqs(int64(100+dim), 14, dim)
		cfg := core.DefaultPartitionConfig()

		dir := filepath.Join(t.TempDir(), "db")
		if err := Build(dir, seqs, cfg); err != nil {
			t.Fatalf("dim=%d: Build: %v", dim, err)
		}
		built, err := Load(dir, false)
		if err != nil {
			t.Fatalf("dim=%d: Load(Build dir): %v", dim, err)
		}
		defer built.Close()

		fresh, err := core.NewDatabase(core.Options{Dim: dim, Partition: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		if _, err := fresh.AddAll(seqs); err != nil {
			t.Fatal(err)
		}

		q := &core.Sequence{Points: seqs[5].Points[3:28]}
		for _, eps := range []float64{0.02, 0.1, 0.4} {
			a, _, err := fresh.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := built.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesIdentical(t, fmt.Sprintf("dim=%d eps=%v", dim, eps), a, b)
		}
	}
}

// assertMatchesIdentical requires bit-identical search results: same
// sequences in the same order with exactly equal MinDnorm and intervals.
func assertMatchesIdentical(t *testing.T, ctx string, a, b []core.Match) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d matches", ctx, len(a), len(b))
	}
	for i := range a {
		if a[i].Seq.Label != b[i].Seq.Label {
			t.Fatalf("%s match %d: label %q vs %q", ctx, i, a[i].Seq.Label, b[i].Seq.Label)
		}
		if a[i].MinDnorm != b[i].MinDnorm {
			t.Fatalf("%s match %d (%s): MinDnorm %v vs %v — not bit-identical",
				ctx, i, a[i].Seq.Label, a[i].MinDnorm, b[i].MinDnorm)
		}
		if a[i].Interval.String() != b[i].Interval.String() {
			t.Fatalf("%s match %d (%s): intervals %s vs %s",
				ctx, i, a[i].Seq.Label, a[i].Interval.String(), b[i].Interval.String())
		}
	}
}

// TestFormatAndQuantizationEquivalence: across dims, with and without the
// quantized prefilter and the file index, a saved and reloaded store
// answers bit-identically to a freshly built database. The v1 row of the
// matrix is TestReadsV1Golden's committed fixtures.
func TestFormatAndQuantizationEquivalence(t *testing.T) {
	for _, dim := range []int{2, 4, 8, 16} {
		seqs := corpusSeqs(int64(200+dim), 12, dim)
		ref, err := core.NewDatabase(core.Options{Dim: dim})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if _, err := ref.AddAll(seqs); err != nil {
			t.Fatal(err)
		}

		queries := []*core.Sequence{
			{Points: seqs[2].Points[0:20]},
			{Points: seqs[7].Points[10:40]},
		}
		type variant struct {
			name string
			opts LoadOptions
		}
		variants := []variant{
			{"v2 exact", LoadOptions{}},
			{"v2 quantized", LoadOptions{Quantized: true}},
			{"v2 fileindex quantized", LoadOptions{FileIndex: true, Quantized: true}},
		}
		for _, v := range variants {
			dir := filepath.Join(t.TempDir(), "db")
			if err := Save(ref, dir); err != nil {
				t.Fatalf("dim=%d %s: save: %v", dim, v.name, err)
			}
			db, err := LoadWith(dir, v.opts)
			if err != nil {
				t.Fatalf("dim=%d %s: load: %v", dim, v.name, err)
			}
			for qi, q := range queries {
				for _, eps := range []float64{0.05, 0.2} {
					want, _, err := ref.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					got, stats, err := db.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesIdentical(t,
						fmt.Sprintf("dim=%d %s q%d eps=%v", dim, v.name, qi, eps), want, got)
					if v.opts.Quantized && stats.MatchesDnorm > 0 && stats.DnormEvals == 0 {
						t.Errorf("dim=%d %s: matches without Dnorm evals", dim, v.name)
					}
				}
			}
			db.Close()
		}
	}
}

func TestSaveIsAtomicAgainstTornWrites(t *testing.T) {
	db, _ := buildDB(t, 8)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}

	// Truncating the segment file mid-payload must fail closed.
	segPath := filepath.Join(dir, segFile)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, segHeaderLen, len(raw) / 3, len(raw) - 1} {
		if err := os.WriteFile(segPath, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, false); !errors.Is(err, ErrBadStore) {
			t.Errorf("torn write (%d/%d bytes): err = %v, want ErrBadStore", keep, len(raw), err)
		}
	}
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A crashed save leaves dir.tmp (and possibly dir.old); a fresh Save
	// must clear both and still land atomically, and Load must ignore them.
	for _, stale := range []string{dir + ".tmp", dir + ".old"} {
		if err := os.MkdirAll(stale, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stale, "junk"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := Load(dir, false)
	if err != nil {
		t.Fatalf("load with stale temp dirs: %v", err)
	}
	loaded.Close()
	if err := Save(db, dir); err != nil {
		t.Fatalf("save over stale temp dirs: %v", err)
	}
	for _, stale := range []string{dir + ".tmp", dir + ".old"} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("%s survived Save", stale)
		}
	}
	loaded, err = Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 8 {
		t.Errorf("Len = %d after re-save", loaded.Len())
	}
	loaded.Close()
}

func TestV2LoadSurvivesFanoutChange(t *testing.T) {
	// A v2 file whose packed leaves were built under a different fanout
	// must still load (plain bulk load path) with identical results.
	db, seqs := buildDB(t, 10)
	dir := filepath.Join(t.TempDir(), "db")
	if err := Save(db, dir); err != nil {
		t.Fatal(err)
	}
	// Rewrite the stored treeM so it mismatches, fixing the header CRC.
	segPath := filepath.Join(dir, segFile)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[56:60], 7777)
	binary.LittleEndian.PutUint32(raw[76:80], crc32.Checksum(raw[:76], castagnoli))
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, false)
	if err != nil {
		t.Fatalf("load with foreign fanout: %v", err)
	}
	defer loaded.Close()
	q := &core.Sequence{Points: seqs[4].Points[5:30]}
	a, _, err := db.Search(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loaded.Search(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesIdentical(t, "fanout change", a, b)
}
