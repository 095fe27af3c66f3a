package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke drives all four workloads through a traced run at 1/16 scale
// with ~1 s phases: the real mdsserve is built and spawned, answers are
// checked, the replay and the isolation rows run. It asserts the harness's
// contract with BENCHMARK.json, not any timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns mdsserve")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	// The work directory sits under the checkout like a real run's, not
	// under /tmp: the durable workload fsyncs, and tmpfs would make that free.
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(work)
	e := &env{root: root, bin: bin, work: work, scale: 16, out: io.Discard}
	if testing.Verbose() {
		e.out = os.Stdout
	}

	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range bf.Workloads {
		sp, ok := findSpec(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the harness does not have", w.Name)
		}
		wr, err := runWorkload(e, sp, defaultSeed, 2, true, work)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", sp.name, wr.Failed, wr.Attempted)
		}
		for _, d := range bf.EndToEnd {
			if m, ok := wr.EndToEnd[d.Name]; !ok || m.Unit != d.Unit || !name.MatchString(d.Name) {
				t.Errorf("%s: end-to-end metric %q (%s) declared, got %+v present=%v", sp.name, d.Name, d.Unit, m, ok)
			} else if m.Value <= 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: end-to-end metric %q is %v; it must never be 0", sp.name, d.Name, m.Value)
			}
		}
		for _, d := range bf.PerLayer {
			if m, ok := wr.PerLayer[d.Name]; !ok || m.Unit != d.Unit || !name.MatchString(d.Name) {
				t.Errorf("%s: per-layer metric %q (%s) declared, got %+v present=%v", sp.name, d.Name, d.Unit, m, ok)
			} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %q is %v", sp.name, d.Name, m.Value)
			}
		}
		if len(wr.EndToEnd) != len(bf.EndToEnd) || len(wr.PerLayer) != len(bf.PerLayer) {
			t.Errorf("%s: emitted %d+%d metrics, BENCHMARK.json declares %d+%d", sp.name,
				len(wr.EndToEnd), len(wr.PerLayer), len(bf.EndToEnd), len(bf.PerLayer))
		}

		// Self times plus the unattributed row are the loopback wall time.
		sum := wr.Peel.UnattributedUS
		for _, v := range wr.Peel.Rows {
			sum += v
		}
		if math.Abs(sum-wr.Peel.WallUS) > 1e-6*wr.Peel.WallUS {
			t.Errorf("%s: layer rows sum to %.3f us, loopback wall is %.3f us", sp.name, sum, wr.Peel.WallUS)
		}

		f, err := os.Open(filepath.Join(work, "spans-"+sp.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		roots, n := 0, 0
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: spans line %d: %v", sp.name, n+1, err)
			}
			if s.Name == "" || s.End < s.Start {
				t.Fatalf("%s: malformed span %+v", sp.name, s)
			}
			if s.Parent == "" {
				roots++
			}
			n++
		}
		f.Close()
		if roots != wr.Peel.Requests || n <= roots {
			t.Errorf("%s: %d spans, %d roots, %d replayed requests", sp.name, n, roots, wr.Peel.Requests)
		}
	}
}

// TestInputsFollowSeed: the same seed gives the same inputs, a different
// seed a different request stream over the same corpus.
func TestInputsFollowSeed(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, 7, 16)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(sp, 7, 16)
		c, _ := generate(sp, 8, 16)
		if a.corpusDigest != b.corpusDigest || a.streamDigest != b.streamDigest {
			t.Errorf("%s: seed 7 gave two different inputs", sp.name)
		}
		if a.streamDigest == c.streamDigest {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", sp.name)
		}
		if a.corpusDigest != c.corpusDigest {
			t.Errorf("%s: the corpus depends on the seed", sp.name)
		}
	}
}
