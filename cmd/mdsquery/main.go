// Command mdsquery loads a dataset generated by mdsgen, indexes it, and
// answers similarity queries, printing matched sequences and the solution
// intervals (sub-ranges) where they match — the paper's "play those
// sub-streams only" workflow.
//
// Usage:
//
//	mdsquery -data video.mds -query 17 -from 40 -len 60 -eps 0.1
//	mdsquery -data video.mds -query 17 -eps 0.15 -baseline -knn 5 -dtw
//	mdsquery -data video.mds -query 17 -eps 0.15 -metric dtw -dtw-window 16
//	mdsquery -data video.mds -save-store ./dbdir -query 17
//	mdsquery -store ./dbdir -query 17 -eps 0.1
//	mdsquery -store ./olddir -save-store ./dbdir     # rewrite a v1 store as v2
//
// -save-store persists the loaded corpus as a store directory (v2
// columnar segments), and -store opens such a directory directly — a
// zero-copy mmap — instead of re-indexing -data. A v1 (row-record)
// directory written by an older build still opens, by re-partitioning;
// -store with -save-store rewrites it as v2.
//
// -metric selects the ranking distance ("d", the paper's exact-alignment
// distance, or "dtw" for warping-tolerant search with an optional
// Sakoe–Chiba -dtw-window); -dtw, by contrast, only re-ranks the D-metric
// matches after the fact.
//
// The query is a subsequence of a stored sequence (index -query, starting
// at -from, -len points; -len 0 means to the end).
package main

import (
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() {
	if err := cli.Query(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdsquery:", err)
		os.Exit(1)
	}
}
