package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestGenAndQueryBinary(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.mds")
	var out strings.Builder
	err := Gen([]string{"-kind", "fractal", "-count", "20", "-maxlen", "120", "-o", data}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 20 fractal sequences") {
		t.Errorf("gen output: %q", out.String())
	}

	out.Reset()
	err = Query([]string{"-data", data, "-query", "3", "-from", "5", "-len", "30",
		"-eps", "0.15", "-baseline", "-knn", "2", "-dtw"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"indexed 20 sequences",
		"phases: partition",
		"re-ranked by DTW",
		"nearest sequences by exact distance",
		"sequential scan:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("query output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "false dismissal") {
		t.Errorf("query reported a false dismissal:\n%s", s)
	}
	// The query's own source must appear as a zero-distance match.
	if !strings.Contains(s, "#3 fractal-0003") {
		t.Errorf("source sequence missing from output:\n%s", s)
	}
}

func TestGenAndQueryCSV(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.csv")
	var out strings.Builder
	if err := Gen([]string{"-kind", "video", "-count", "8", "-maxlen", "100", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := Query([]string{"-data", data, "-query", "1", "-len", "20", "-eps", "0.1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "indexed 8 sequences") {
		t.Errorf("csv query output: %q", out.String())
	}
}

func TestGenDump(t *testing.T) {
	var out strings.Builder
	if err := Gen([]string{"-kind", "fractal", "-maxlen", "64", "-dump"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# fractal sample sequence, 32 points, dim 3") {
		t.Errorf("dump header missing: %q", out.String()[:80])
	}
	if got := strings.Count(out.String(), "\n"); got != 33 { // header + 32 rows
		t.Errorf("dump has %d lines", got)
	}
}

func TestGenErrors(t *testing.T) {
	var out strings.Builder
	if err := Gen([]string{"-kind", "nope", "-dump"}, &out); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := Gen([]string{"-kind", "fractal"}, &out); err == nil {
		t.Error("missing -o accepted")
	}
	if err := Gen([]string{"-bogusflag"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	var out strings.Builder
	if err := Query([]string{}, &out); err == nil {
		t.Error("missing -data accepted")
	}
	if err := Query([]string{"-data", "/nonexistent.mds"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "d.mds")
	if err := Gen([]string{"-kind", "fractal", "-count", "3", "-maxlen", "80", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	if err := Query([]string{"-data", data, "-query", "99"}, &out); err == nil {
		t.Error("out-of-range query index accepted")
	}
	if err := Query([]string{"-data", data, "-query", "0", "-from", "9999"}, &out); err == nil {
		t.Error("out-of-range offset accepted")
	}
}

// TestQuerySaveStoreUpgradesV1 is the documented upgrade path for a store
// written before v2: -store old -save-store new rewrites it as v2 in the
// same layout (plain or sharded), and the new directory answers as the
// old one did. The old directories are internal/store's v1 fixtures.
func TestQuerySaveStoreUpgradesV1(t *testing.T) {
	matches := regexp.MustCompile(`(?m)^ +#.*$`)
	for _, tc := range []struct{ old, payload string }{
		{"../store/testdata/v1store", "segments.sg2"},
		{"../store/testdata/v1sharded", "shard001/segments.sg2"},
	} {
		upgraded := filepath.Join(t.TempDir(), "db")
		var oldOut, newOut strings.Builder
		query := []string{"-query", "4", "-from", "5", "-len", "19", "-eps", "0.3"}
		if err := Query(append([]string{"-store", tc.old, "-save-store", upgraded}, query...), &oldOut); err != nil {
			t.Fatalf("%s: %v", tc.old, err)
		}
		if _, err := os.Stat(filepath.Join(upgraded, tc.payload)); err != nil {
			t.Fatalf("%s: upgraded store holds no v2 payload: %v", tc.old, err)
		}
		if err := Query(append([]string{"-store", upgraded}, query...), &newOut); err != nil {
			t.Fatalf("%s, upgraded: %v", tc.old, err)
		}
		want, got := matches.FindAllString(oldOut.String(), -1), matches.FindAllString(newOut.String(), -1)
		if len(want) == 0 || strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Errorf("%s: upgraded store answers differently\nold:\n%s\nnew:\n%s", tc.old, oldOut.String(), newOut.String())
		}
	}
}

func TestQuerySharded(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.mds")
	var out strings.Builder
	if err := Gen([]string{"-kind", "fractal", "-count", "20", "-maxlen", "120", "-seed", "11", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	run := func(shards string) string {
		var buf strings.Builder
		err := Query([]string{"-data", data, "-query", "3", "-from", "5", "-len", "30",
			"-eps", "0.15", "-baseline", "-shards", shards}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	sharded := run("4")
	if !strings.Contains(sharded, "4 shard(s)") {
		t.Errorf("sharded query output missing shard count:\n%s", sharded)
	}
	if strings.Contains(sharded, "false dismissal") {
		t.Errorf("sharded query reported a false dismissal:\n%s", sharded)
	}
	if !strings.Contains(sharded, "fractal-0003") {
		t.Errorf("source sequence missing from sharded output:\n%s", sharded)
	}
	// Match count must agree between topologies.
	single := run("1")
	matchCount := regexp.MustCompile(`\((\d+) matches\)`)
	want := matchCount.FindStringSubmatch(single)
	got := matchCount.FindStringSubmatch(sharded)
	if want == nil || got == nil || want[1] != got[1] {
		t.Errorf("match counts diverge: single %v vs sharded %v", want, got)
	}

	if err := Query([]string{"-data", data, "-shards", "0"}, &out); err == nil {
		t.Error("shard count 0 accepted")
	}
}

func TestBenchList(t *testing.T) {
	var out strings.Builder
	if err := Bench([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "1600") || !strings.Contains(s, "1408") {
		t.Errorf("Table 2 sizes missing:\n%s", s)
	}
}

func TestBenchFigures(t *testing.T) {
	// One pruning figure and one SI figure at a heavy scale-down: the full
	// pipeline (generate, index, ground truth, measure, report) under test.
	var out strings.Builder
	if err := Bench([]string{"-exp", "fig6", "-scale", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "PR(Dnorm)") {
		t.Errorf("fig6 report malformed:\n%s", out.String())
	}
	out.Reset()
	if err := Bench([]string{"-exp", "fig9", "-scale", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Recall") {
		t.Errorf("fig9 report malformed:\n%s", out.String())
	}
}

func TestBenchErrors(t *testing.T) {
	var out strings.Builder
	if err := Bench([]string{}, &out); err == nil {
		t.Error("missing -exp accepted")
	}
	if err := Bench([]string{"-exp", "nope"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestQueryExplain(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.mds")
	var out strings.Builder
	if err := Gen([]string{"-kind", "fractal", "-count", "6", "-maxlen", "80", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := Query([]string{"-data", data, "-query", "2", "-len", "20", "-eps", "0.1", "-explain"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "pruned by Dmbr") || !strings.Contains(s, "minDnorm") {
		t.Errorf("explain output missing:\n%s", s)
	}
}

func TestBenchAblationsAndExtensionsTinyScale(t *testing.T) {
	// Exercise every experiment dispatch path at 1/80 scale (20 sequences,
	// 1 query) — full pipeline smoke coverage, seconds not minutes.
	cases := []struct {
		exp  string
		want string
	}{
		{"fig8", "Pruning Rate"},
		{"fig10", "ratio (scan/proposed)"},
		{"ablation-mcost", "Qk+eps"},
		{"ablation-maxpts", "max pts/MBR"},
		{"ablation-fanout", "fanout"},
		{"ablation-dim", "dim"},
		{"noise", "noise"},
		{"iocost", "fetches/query"},
	}
	for _, c := range cases {
		var out strings.Builder
		if err := Bench([]string{"-exp", c.exp, "-scale", "80", "-seed", "7"}, &out); err != nil {
			t.Fatalf("%s: %v", c.exp, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s report missing %q:\n%s", c.exp, c.want, out.String())
		}
	}
}

func TestBenchScalabilityTiny(t *testing.T) {
	t.Skip("scalability sweeps fixed absolute sizes (100-1600); covered by experiment tests")
}

func TestGenSeedsAreReproducible(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.mds"), filepath.Join(dir, "b.mds")
	var out strings.Builder
	if err := Gen([]string{"-kind", "fractal", "-count", "5", "-maxlen", "64", "-seed", "3", "-o", a}, &out); err != nil {
		t.Fatal(err)
	}
	if err := Gen([]string{"-kind", "fractal", "-count", "5", "-maxlen", "64", "-seed", "3", "-o", b}, &out); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Error("same seed produced different datasets")
	}
}

func TestGenVideoDump(t *testing.T) {
	var out strings.Builder
	if err := Gen([]string{"-kind", "video", "-maxlen", "48", "-dump"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# video sample sequence, 24 points, dim 3") {
		t.Errorf("video dump header: %q", out.String()[:60])
	}
}

func TestQueryMetricDTW(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.mds")
	var out strings.Builder
	if err := Gen([]string{"-kind", "fractal", "-count", "20", "-maxlen", "120", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "3"} {
		out.Reset()
		err := Query([]string{"-data", data, "-query", "3", "-from", "5", "-len", "30",
			"-eps", "0.25", "-metric", "dtw", "-dtw-window", "8",
			"-baseline", "-knn", "2", "-shards", shards}, &out)
		if err != nil {
			t.Fatalf("shards=%s: %v", shards, err)
		}
		s := out.String()
		for _, want := range []string{
			"metric dtw:",
			"env-pruned",
			"nearest sequences by exact dtw distance",
			"sequential dtw scan:",
		} {
			if !strings.Contains(s, want) {
				t.Errorf("shards=%s: metric query output missing %q:\n%s", shards, want, s)
			}
		}
		if strings.Contains(s, "false dismissal") {
			t.Errorf("shards=%s: indexed DTW dismissed a scan result:\n%s", shards, s)
		}
		// The query's own source scores DTW 0 and must surface.
		if !strings.Contains(s, "fractal-0003") {
			t.Errorf("shards=%s: source sequence missing from DTW output:\n%s", shards, s)
		}
	}
}

func TestQueryMetricValidation(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.mds")
	var out strings.Builder
	if err := Gen([]string{"-kind", "fractal", "-count", "5", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	if err := Query([]string{"-data", data, "-metric", "chebyshev"}, &out); err == nil {
		t.Error("unknown -metric accepted")
	}
	if err := Query([]string{"-data", data, "-metric", "dtw", "-dtw-window", "-5"}, &out); err == nil {
		t.Error("-dtw-window -5 accepted")
	}
	// A too-narrow window on the -dtw re-rank path surfaces a warning
	// instead of silently mis-ranking.
	out.Reset()
	if err := Query([]string{"-data", data, "-query", "0", "-len", "10",
		"-eps", "0.5", "-dtw", "-dtw-window", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); strings.Contains(s, "re-ranked by DTW") &&
		strings.Contains(s, "unranked") == !strings.Contains(s, "WARNING") {
		t.Errorf("warning/unranked mismatch in output:\n%s", s)
	}
}
