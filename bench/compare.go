package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain implements -compare a.json b.json: per workload and
// end-to-end metric it prints both values, how much worse b is than a as a
// share of a, and the bound. It returns 1 when any metric is outside its
// bound, and says "unresolved" where either run's own window spread
// exceeds the bound, because then the runs cannot tell a change that size
// from noise.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare wants two result.json files")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var a, b resultFile
	for i, dst := range []*resultFile{&a, &b} {
		raw, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(raw, dst)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", args[i], err)
			return 2
		}
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %g s\nb: %s  commit %s  seed %d  %g s\n",
		args[0], a.SHA, a.Seed, a.Seconds, args[1], b.SHA, b.Seed, b.Seconds)

	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict\t\n")
	outside := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, d := range bf.EndToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB || va.Value == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.2f\tmissing\t\n", name, d.Name, d.Bound)
				outside++
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case wa.Spread[d.Name] > d.Bound || wb.Spread[d.Name] > d.Bound:
				verdict = fmt.Sprintf("unresolved (window spread %.2f / %.2f)", wa.Spread[d.Name], wb.Spread[d.Name])
			case worse > d.Bound:
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\t\n",
				name, d.Name, va.Value, vb.Value, 100*worse, 100*d.Bound, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t\t\tOUTSIDE\t\n", name, wa.Failed, wb.Failed)
			outside++
		}
	}
	tw.Flush()
	if outside > 0 {
		fmt.Fprintf(w, "%d metric(s) outside their bound\n", outside)
		return 1
	}
	return 0
}
