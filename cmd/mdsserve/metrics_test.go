package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seqio"
	"repro/internal/server"
	"repro/internal/txn"
)

// walCounterRE matches one series of the four WAL counters /txnz also
// reports: family, optional shard label, value.
var walCounterRE = regexp.MustCompile(`(?m)^mdseq_wal_(checkpoints|records|fsyncs|bytes)_total(?:\{shard="(\d+)"\})? (\d+)$`)

// TestMetricsMatchTxnz: a -data start folds its ingest before the server
// wires its registry, and the WAL counters on /metrics must still read
// what /txnz reports — checkpoints, records, fsyncs and WAL bytes — on one
// node and on four, with and without -durable, after two writes per node
// at -checkpoint-every 2.
func TestMetricsMatchTxnz(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	corpus := make([]*core.Sequence, 24)
	for i := range corpus {
		corpus[i] = toSeq(fmt.Sprintf("c%02d", i), walk(rng, 20+rng.Intn(20)))
	}
	data := filepath.Join(t.TempDir(), "corpus.mds")
	if err := seqio.WriteFile(data, corpus); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/durable=%v", shards, durable), func(t *testing.T) {
				tc := txnConfig{checkpointEvery: 2}
				if durable {
					tc.dir = filepath.Join(t.TempDir(), "dur")
				}
				db, nodes, err := openDB("", data, 3, shards, tc)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				h := server.New(db, server.WithMetrics(newRegistry(db, nodes)))

				folds := func() (n uint64) {
					for _, node := range nodes {
						n += node.Stats().Checkpoints
					}
					return n
				}
				before := folds()
				for i := 0; i < 2*shards; i++ {
					body := fmt.Sprintf(`{"label":"w%d","points":%s}`, i, mustJSON(t, walk(rng, 12)))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/sequences", strings.NewReader(body)))
					if rec.Code != http.StatusCreated {
						t.Fatalf("write %d: %d %s", i, rec.Code, rec.Body)
					}
				}
				// The writes fold on the pacer's goroutine; compare once one
				// has, and until the two surfaces settle on the same values.
				deadline := time.Now().Add(20 * time.Second)
				for {
					got, want := walCounters(t, h, shards)
					if folds() > before && got == want {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("/metrics WAL counters %v, /txnz %v (folds %d, %d before the writes)", got, want, folds(), before)
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// walCounters reads the four WAL counters of every shard from /metrics
// and from /txnz, formatted alike for comparison.
func walCounters(t *testing.T, h http.Handler, shards int) (metrics, txnz string) {
	t.Helper()
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	m := map[string]uint64{}
	for _, sub := range walCounterRE.FindAllSubmatch(get("/metrics"), -1) {
		v, err := strconv.ParseUint(string(sub[3]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		m[fmt.Sprintf("%s/%s", sub[2], sub[1])] = v
	}
	type nodeStats struct {
		Shard int `json:"shard"`
		txn.Stats
	}
	var stats []nodeStats
	body := get("/txnz")
	if shards == 1 {
		stats = make([]nodeStats, 1)
		if err := json.Unmarshal(body, &stats[0].Stats); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != shards {
		t.Fatalf("/txnz reports %d nodes, want %d", len(stats), shards)
	}
	var mb, tb strings.Builder
	for _, s := range stats {
		label := ""
		if shards > 1 {
			label = strconv.Itoa(s.Shard)
		}
		fmt.Fprintf(&mb, "[%s: %d %d %d %d]", label, m[label+"/checkpoints"], m[label+"/records"], m[label+"/fsyncs"], m[label+"/bytes"])
		fmt.Fprintf(&tb, "[%s: %d %d %d %d]", label, s.Checkpoints, s.Records, s.Fsyncs, s.WALBytes)
	}
	return mb.String(), tb.String()
}
