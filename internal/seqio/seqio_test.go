package seqio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func randomDataset(rng *rand.Rand, count, dim int) []*core.Sequence {
	out := make([]*core.Sequence, count)
	for i := range out {
		n := 1 + rng.Intn(50)
		pts := make([]geom.Point, n)
		for j := range pts {
			p := make(geom.Point, dim)
			for k := range p {
				p[k] = rng.Float64()
			}
			pts[j] = p
		}
		out[i] = &core.Sequence{Label: "seq", Points: pts}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomDataset(rng, 20, 3)
	in[5].Label = "with a longer label / punctuation 🎬"
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameStored(t, out, in)
}

// sameStored fails unless out is in read back as stored sequences: no
// input-form points, and the labels, lengths and coordinates, bit for
// bit, of what was written.
func sameStored(t *testing.T, out, in []*core.Sequence) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("count = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Points != nil {
			t.Fatalf("sequence %d read back with input-form points", i)
		}
		if out[i].Label != in[i].Label {
			t.Errorf("sequence %d label %q, want %q", i, out[i].Label, in[i].Label)
		}
		if out[i].Len() != in[i].Len() || out[i].Dim() != in[i].Dim() {
			t.Fatalf("sequence %d is %d×%d, want %d×%d", i, out[i].Len(), out[i].Dim(), in[i].Len(), in[i].Dim())
		}
		for j := range in[i].Len() {
			p, q := out[i].At(j), in[i].At(j)
			for k := range q {
				if math.Float64bits(p[k]) != math.Float64bits(q[k]) {
					t.Fatalf("sequence %d point %d is %v, want %v", i, j, p, q)
				}
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomDataset(rng, 5, 2)
	path := filepath.Join(t.TempDir(), "data.mds")
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 || out[0].Dim() != 2 {
		t.Errorf("read %d sequences dim %d", len(out), out[0].Dim())
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	mixed := []*core.Sequence{
		{Points: []geom.Point{{1, 2}}},
		{Points: []geom.Point{{1}}},
	}
	if err := Write(&buf, mixed); err == nil {
		t.Error("mixed-dim dataset accepted")
	}
	invalid := []*core.Sequence{{}}
	if err := Write(&buf, invalid); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a dataset"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("garbage read = %v", err)
	}
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("empty read = %v", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomDataset(rng, 3, 3)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 12, 9} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadAssignsSequentialIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomDataset(rng, 4, 3)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if s.ID != uint32(i) {
			t.Errorf("sequence %d has ID %d", i, s.ID)
		}
	}
}

// TestRoundTripAcrossChunks: sequences, labels and single points larger
// than the codec's buffer are written and read back bit for bit.
func TestRoundTripAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ count, dim int }{{4, 5}, {2, 9000}} {
		in := randomDataset(rng, tc.count, tc.dim)
		in[0].Label = strings.Repeat("λ", (maxLabel-1)/2) // 65 534 bytes
		long := make([]geom.Point, 3000)
		for j := range long {
			long[j] = in[1].At(j % in[1].Len()).Clone()
		}
		in[1] = &core.Sequence{Label: "long", Points: long}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameStored(t, out, in)
	}
}

// TestReadAllocs pins what Read allocates: a fixed few for the reader and
// the result list, then per sequence its label, its coordinates and its
// header, whatever its length — no header per point and no staging buffer
// per sequence.
func TestReadAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		var buf bytes.Buffer
		if err := Write(&buf, randomDataset(rand.New(rand.NewSource(int64(n))), n, 3)); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		// With the collector off: the work the runtime runs after each
		// cycle allocates too, and a larger input brings more cycles.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() {
			r.Reset(buf.Bytes())
			if _, err := Read(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("Read allocations: %v for 100 sequences, %v for 1000", small, large)
	if perSeq := (large - small) / 900; perSeq != readAllocsPerSeq || small != readAllocsFixed+100*readAllocsPerSeq {
		t.Errorf("Read makes %v allocations for 100 sequences and %v for 1000; want %d + %d per sequence", small, large, readAllocsFixed, readAllocsPerSeq)
	}
}

// What Read allocates: the buffered reader's buffer and the result list,
// then per sequence the label, the coordinates and the Sequence. Decoding
// through binary.Read into []geom.Point made 8 per sequence: a byte buffer
// for each fixed field and for the label, a staging buffer for the
// coordinates and the header slab besides.
const (
	readAllocsFixed  = 2
	readAllocsPerSeq = 3
)

// TestWriteAllocs: Write encodes through one buffer, so what it allocates
// does not grow with the dataset. It used to allocate once per coordinate.
func TestWriteAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		in := randomDataset(rand.New(rand.NewSource(int64(n))), n, 3)
		return testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, in); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("Write allocations: %v for 100 sequences, %v for 1000", small, large)
	if small != large || small != writeAllocs {
		t.Errorf("Write makes %v allocations for 100 sequences and %v for 1000; want %d for both", small, large, writeAllocs)
	}
}

// writeAllocs is Write's one encode buffer.
const writeAllocs = 1

// TestReadDim: ReadDim reads the header alone — a body cut right after it
// still gives the dimension — and refuses what Read refuses in a header.
func TestReadDim(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, randomDataset(rand.New(rand.NewSource(6)), 3, 7)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if dim, err := ReadDim(bytes.NewReader(full[:headerLen])); err != nil || dim != 7 {
		t.Errorf("ReadDim of a bare header = %d, %v; want 7", dim, err)
	}
	if _, err := Read(bytes.NewReader(full[:headerLen+5])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("Read of a cut body = %v, want ErrBadFormat", err)
	}
	zeroCount := append([]byte(nil), full[:headerLen]...)
	clear(zeroCount[headerLen-4:])
	for name, b := range map[string][]byte{
		"short":      full[:headerLen-1],
		"foreign":    []byte("MDSSEQS2\x07\x00\x03\x00\x00\x00"),
		"zero count": zeroCount,
	} {
		if _, err := ReadDim(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("ReadDim of a %s header = %v, want ErrBadFormat", name, err)
		}
	}
}

// TestReadAllocatesWhatTheInputHolds: a header's counts do not size
// Read's allocations. A 14-byte header claiming 10 M sequences, and a
// 20-byte file claiming one sequence of 10 M points (or of 100 M points of
// 65 535 coordinates), fail with ErrBadFormat while the heap grows by less
// than 1 MB, read from memory or from a file through ReadFile. Sized from
// the header, the first two asked for 80 MB and 76 MiB before failing, and
// the third ran the process out of memory.
func TestReadAllocatesWhatTheInputHolds(t *testing.T) {
	header := func(dim uint16, count uint32) []byte {
		b := []byte(magic)
		b = binary.LittleEndian.AppendUint16(b, dim)
		return binary.LittleEndian.AppendUint32(b, count)
	}
	manySeqs := header(1, maxSequences)
	manyPoints := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(header(1, 1), 0), 10_000_000)
	wide := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(header(65535, 1), 0), maxPoints)
	dir := t.TempDir()
	for name, data := range map[string][]byte{"10 M sequences": manySeqs, "10 M points": manyPoints, "100 M wide points": wide} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for how, read := range map[string]func() error{
			"Read":     func() error { _, err := Read(bytes.NewReader(data)); return err },
			"ReadFile": func() error { _, err := ReadFile(path); return err },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s, %s: error %v, want ErrBadFormat", name, how, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("%s, %s: Read allocated %d bytes of a %d-byte input", name, how, grew, len(data))
			}
		}
	}
}

// TestReadGrowsLongSequences: Read grows a coordinate list as the data
// arrives, across several doublings for a sequence of 27 000 coordinates,
// and returns what was written, each coordinate list exactly as long as
// its sequence.
func TestReadGrowsLongSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := randomDataset(rng, 5, 9)
	long := make([]geom.Point, 3000)
	for j := range long {
		long[j] = make(geom.Point, 9)
		for k := range long[j] {
			long[j][k] = rng.Float64()
		}
	}
	in = append(in, &core.Sequence{Label: "long", Points: long})
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d sequences, want %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i].Flat(), slices.Concat(in[i].Points...)
		if !slices.Equal(got, want) || out[i].Label != in[i].Label {
			t.Errorf("sequence %d: read %d coordinates, want %d as written", i, len(got), len(want))
		}
	}
}
