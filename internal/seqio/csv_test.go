package seqio

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomDataset(rng, 8, 3)
	for i := range in {
		in[i].Label = "s" + string(rune('A'+i))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameStored(t, out, in)
}

func TestCSVFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomDataset(rng, 3, 2)
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := WriteCSVFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Dim() != 2 {
		t.Errorf("read %d sequences dim %d", len(out), out[0].Dim())
	}
}

func TestCSVEmptyLabelGetsGenerated(t *testing.T) {
	in := []*core.Sequence{{Points: []geom.Point{{0.5}}}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Label == "" {
		t.Error("exported label empty")
	}
}

func TestCSVReadHeaderless(t *testing.T) {
	src := "a,0,0.1,0.2\na,1,0.3,0.4\nb,0,0.5,0.6\n"
	out, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Len() != 2 || out[1].Len() != 1 {
		t.Fatalf("parsed %+v", out)
	}
	if out[0].ID != 0 || out[1].ID != 1 {
		t.Error("ids not assigned")
	}
}

func TestCSVReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"header only":        "label,index,x1\n",
		"short row":          "a,0\n",
		"bad index":          "a,zero,0.1\n",
		"bad coordinate":     "a,0,abc\n",
		"non-zero start":     "a,3,0.1\n",
		"gap in indices":     "a,0,0.1\na,2,0.2\n",
		"dimension mismatch": "a,0,0.1,0.2\na,1,0.3\n",
	}
	for name, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCSVWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	mixed := []*core.Sequence{
		{Points: []geom.Point{{1, 2}}},
		{Points: []geom.Point{{1}}},
	}
	if err := WriteCSV(&buf, mixed); err == nil {
		t.Error("mixed dims accepted")
	}
}

func TestCSVInteropWithBinary(t *testing.T) {
	// A dataset exported to CSV and re-imported indexes identically to the
	// binary path.
	rng := rand.New(rand.NewSource(3))
	in := randomDataset(rng, 5, 3)
	for i := range in {
		in[i].Label = "seq" + string(rune('0'+i))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	db1, _ := core.NewDatabase(core.Options{Dim: 3})
	defer db1.Close()
	db2, _ := core.NewDatabase(core.Options{Dim: 3})
	defer db2.Close()
	if _, err := db1.AddAll(in); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.AddAll(out); err != nil {
		t.Fatal(err)
	}
	if db1.NumMBRs() != db2.NumMBRs() {
		t.Errorf("MBR counts differ: %d vs %d", db1.NumMBRs(), db2.NumMBRs())
	}
}

// TestReadCSVDim: the dimension comes from the first data row, past a
// header row, whatever follows it; a file with no data row has none.
func TestReadCSVDim(t *testing.T) {
	for _, tc := range []struct {
		csv  string
		want int
	}{
		{"label,index,x1,x2\na,0,0.1,0.2\na,x,garbage\n", 2},
		{"a,0,0.1,0.2,0.3\n", 3},
		{"label,index,x1\n", 0},
		{"", 0},
		{"a,0\n", 0},
	} {
		dim, err := ReadCSVDim(strings.NewReader(tc.csv))
		if dim != tc.want || (err == nil) != (tc.want > 0) {
			t.Errorf("ReadCSVDim(%q) = %d, %v; want %d", tc.csv, dim, err, tc.want)
		}
	}
}
