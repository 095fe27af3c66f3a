package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/txn"
)

// counters is one scrape of GET /metrics: series (name plus label set, as
// exposed) to value. Every labelled series is also summed under its bare
// family name, which is what a reader wants for per-shard and per-cache
// series; histogram buckets are skipped.
type counters map[string]float64

// scrape reads the server's /metrics. It is called only between phases:
// nothing scrapes inside a measured window.
func scrape(client *http.Client, base string) (counters, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		if strings.Contains(series, "_bucket{") {
			continue
		}
		out[series] += v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			out[series[:j]] += v
		}
	}
	return out, sc.Err()
}

// delta is after[series] − before[series].
func delta(before, after counters, series string) float64 {
	return after[series] - before[series]
}

// ratio is Δnum/Δden, or 0 when the denominator did not move.
func ratio(before, after counters, num, den string) float64 {
	d := delta(before, after, den)
	if d == 0 {
		return 0
	}
	return delta(before, after, num) / d
}

// histMean is the mean observation of a histogram over the interval, from
// its _sum and _count series. labels is "" or a rendered label set such as
// `{phase="filter"}`.
func histMean(before, after counters, family, labels string) float64 {
	return ratio(before, after, family+"_sum"+labels, family+"_count"+labels)
}

// txnz reads GET /txnz (404 without -durable).
func txnz(client *http.Client, base string) (txn.Stats, bool) {
	var st txn.Stats
	resp, err := client.Get(base + "/txnz")
	if err != nil {
		return st, false
	}
	return st, decodeJSON(resp, &st) == nil
}

// decodeJSON reads a 200 response's body into v.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
