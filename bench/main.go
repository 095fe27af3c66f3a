// Command bench is the load harness for mdsserve: it builds the real
// binary, generates a workload's inputs from a seed, drives the server over
// loopback, checks its answers, and prints every metric BENCHMARK.json
// declares. See README.md in this directory.
//
// Usage:
//
//	go run ./bench                                   # all workloads, end-to-end and traced; writes <out>/result.json
//	go run ./bench -workload range-mem -trace 0      # one end-to-end run (the driver's form)
//	go run ./bench -workload range-mem -trace 1      # one traced run: the per-layer rows
//	go run ./bench -compare a/result.json b/result.json
//	go run ./bench -smoke                            # 1/16 corpus, 1 s phases
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric BENCHMARK.json names.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runResult is the last line of a single-workload run's standard output.
type runResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Correct      bool               `json:"correct"`
	CorpusDigest string             `json:"corpus_digest"`
	StreamDigest string             `json:"stream_digest"`
	EndToEnd     metricSet          `json:"end_to_end"`
	Spread       map[string]float64 `json:"window_spread"` // (max−min)/median over the windows
	PerLayer     metricSet          `json:"per_layer,omitempty"`
	Peel         *peelTable         `json:"peel,omitempty"`
}

// resultFile is result.json: what -compare reads.
type resultFile struct {
	SHA       string                    `json:"sha"`
	Go        string                    `json:"go"`
	NProc     int                       `json:"nproc"`
	CPU       string                    `json:"cpu"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, end-to-end then traced)")
		seed     = flag.Int64("seed", defaultSeed, "input seed: the same seed gives the same corpus and request stream")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters, the in-process replay and isolation rows")
		smoke    = flag.Bool("smoke", false, "1/16 corpus and 1 s phases: exercises every code path, measures nothing")
		out      = flag.String("out", "", "directory for result.json and the spans files (default: "+buildDir+"/out)")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args(), os.Stdout))
	}
	if err := run(*workload, *seed, *seconds, *trace, *smoke, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run is main without the process exit, so the smoke test can call it.
func run(workload string, seed int64, seconds float64, trace int, smoke bool, out string, w io.Writer) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	scale := 1
	if smoke {
		scale, seconds = 16, 2.5
	}
	if out == "" {
		out = filepath.Join(root, buildDir, "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	e := &env{root: root, bin: bin, work: work, scale: scale, out: w}

	if workload != "" {
		sp, ok := findSpec(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		wr, err := runWorkload(e, sp, seed, seconds, trace == 1, out)
		if err != nil {
			return err
		}
		res := runResult{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.EndToEnd}
		if trace == 1 {
			res.Metrics = wr.PerLayer
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", line)
		return err
	}

	rf := resultFile{SHA: commitSHA(root), Go: runtime.Version(), NProc: runtime.NumCPU(), CPU: cpuModel(),
		Seed: seed, Seconds: seconds, Workloads: map[string]workloadResult{}}
	fmt.Fprintf(w, "commit %s  %s  nproc %d  cpu %s  seed %d  %g s per run\n", rf.SHA, rf.Go, rf.NProc, rf.CPU, seed, seconds)
	for _, sp := range specs {
		e2e, err := runWorkload(e, sp, seed, seconds, false, out)
		if err != nil {
			return err
		}
		traced, err := runWorkload(e, sp, seed, seconds, true, out)
		if err != nil {
			return err
		}
		e2e.PerLayer, e2e.Peel = traced.PerLayer, traced.Peel
		e2e.Correct = e2e.Correct && traced.Correct
		rf.Workloads[sp.name] = *e2e
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "result.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", path)
	for name, wr := range rf.Workloads {
		if !wr.Correct {
			return fmt.Errorf("workload %s: %d of %d operations failed", name, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

// runWorkload is one run of one workload: generate, prepare, serve, check,
// and — traced — replay in-process and time the layers alone.
func runWorkload(e *env, sp spec, seed int64, seconds float64, traced bool, out string) (*workloadResult, error) {
	w := e.out
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, %g s) ==\n", sp.name, mode, seconds)
	in, err := generate(sp, seed, e.scale)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  inputs: %d sequences, %d requests, corpus %s stream %s (generated in %.2f s)\n",
		len(in.corpus), len(in.stream), in.corpusDigest, in.streamDigest, in.genSeconds)
	if err := in.checkPinned(e.scale); err != nil {
		return nil, err
	}
	// Each run gets its own directory under the work root so the traced run
	// never meets the end-to-end run's files.
	sub, err := os.MkdirTemp(e.work, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sub)
	re := *e
	re.work = sub

	prep, err := prepare(&re, in)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(in.corpus, sp.durable)
	if err != nil {
		return nil, err
	}
	defer orc.close()

	// A traced run spends 45% of its time on the real server (for the counter
	// deltas), the rest on the replay and the isolation rows.
	served := seconds
	if traced {
		served = seconds * 0.45
	}
	sv, err := serve(&re, in, prep, plan(served), orc, traced)
	if err != nil {
		return nil, err
	}
	wr := &workloadResult{
		Attempted: sv.attempted(), Failed: sv.failed(),
		CorpusDigest: in.corpusDigest, StreamDigest: in.streamDigest,
	}
	wr.Correct = wr.Failed == 0
	wr.EndToEnd, wr.Spread = sv.endToEnd(w)
	fmt.Fprintf(w, "  attempted %d  failed %d  (closed %d ops, open %d ops + %d unsent)\n",
		wr.Attempted, wr.Failed, len(sv.closed.ops), len(sv.open.ops), sv.open.unsent)
	fmt.Fprintf(w, "  oracle: %d answers equal the library's, %d of them also checked against the exhaustive scan, %d wrong\n",
		sv.verdict.library, sv.verdict.scanned, sv.verdict.wrong)
	if sv.verdict.firstErr != nil {
		fmt.Fprintf(w, "  first wrong answer: %v\n", sv.verdict.firstErr)
	}
	if cc := sv.crash; cc != nil {
		fmt.Fprintf(w, "  crash-restart: SIGKILL, restart in %.3f s, %d WAL records replayed, %d of %d acked writes visible (process crash with the OS cache intact, not a power loss)\n",
			cc.recoveryS, cc.replayed, cc.visible, cc.acked)
	}
	sv.openReport(w)
	if !traced {
		return wr, nil
	}

	wr.PerLayer = metricSet{}
	sv.counterLayers(wr.PerLayer)
	total := time.Duration(seconds * float64(time.Second))
	p, err := newPeel(&re, in, prep, orc.db)
	if err != nil {
		return nil, err
	}
	defer p.close()
	// Six passes over the requests the outermost completes in 6% of the run:
	// about 36% in all, which leaves 15% for the isolation rows.
	tr, overhead, err := p.run(total * 6 / 100)
	if err != nil {
		return nil, err
	}
	table := p.table()
	wr.Peel = &table
	p.layers(wr.PerLayer, table, overhead)
	if err := isolation(&re, in, prep, p, wr.PerLayer, total*15/100); err != nil {
		return nil, err
	}
	spans := filepath.Join(out, "spans-"+sp.name+".jsonl")
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  per-layer account of %d replayed requests (spans in %s):\n", table.Requests, spans)
	table.print(w)
	fmt.Fprintf(w, "  per-layer metrics:\n")
	printMetrics(w, wr.PerLayer)
	return wr, nil
}

func commitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
