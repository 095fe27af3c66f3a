package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/seqio"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
)

// walk returns a random walk of n dim-3 points from a random start.
func walk(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	for i := range pts {
		q := make([]float64, 3)
		for k := range q {
			q[k] = p[k] + (rng.Float64()-0.5)*0.06
		}
		pts[i], p = q, q
	}
	return pts
}

func toSeq(label string, raw [][]float64) *core.Sequence {
	pts := make([]geom.Point, len(raw))
	for i, p := range raw {
		pts[i] = geom.Point(p)
	}
	return &core.Sequence{Label: label, Points: pts}
}

// servedPair sends every request to the database under test and to the
// reference, and fails the test where their answers differ.
type servedPair struct {
	t        *testing.T
	got, ref http.Handler
}

// send replays one request on both servers and returns the reference's
// status and body once the two agree: the same status, and for a 2xx the
// same answer — the whole body, or for /search, /batch and /knn the
// matches and neighbors (stats count work, which a delta and a router
// split differently; shardsAnswered is the router's).
func (p servedPair) send(method, path string, body any) (int, []byte) {
	p.t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			p.t.Fatal(err)
		}
	}
	do := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
		return rec
	}
	got, ref := do(p.got), do(p.ref)
	if got.Code != ref.Code {
		p.t.Fatalf("%s %s %s: status %d, reference %d (%s)", method, path, raw, got.Code, ref.Code, got.Body)
	}
	if ref.Code/100 != 2 {
		return ref.Code, ref.Body.Bytes()
	}
	a, b := got.Body.Bytes(), ref.Body.Bytes()
	switch path {
	case "/search":
		var x, y server.SearchResponse
		a, b = reencode(p.t, a, &x, func() any { return x.Matches }), reencode(p.t, b, &y, func() any { return y.Matches })
	case "/knn":
		var x, y struct {
			Neighbors []server.NeighborJSON `json:"neighbors"`
		}
		a, b = reencode(p.t, a, &x, func() any { return x.Neighbors }), reencode(p.t, b, &y, func() any { return y.Neighbors })
	case "/batch":
		var x, y server.BatchSearchResponse
		matches := func(r *server.BatchSearchResponse) func() any {
			return func() any {
				var out [][]server.MatchJSON
				for _, res := range r.Results {
					out = append(out, res.Matches)
				}
				return out
			}
		}
		a, b = reencode(p.t, a, &x, matches(&x)), reencode(p.t, b, &y, matches(&y))
	}
	if !bytes.Equal(a, b) {
		p.t.Fatalf("%s %s %s:\n got %s\nwant %s", method, path, raw, a, b)
	}
	return ref.Code, ref.Body.Bytes()
}

// reencode decodes body into v and encodes what part returns.
func reencode(t *testing.T, body []byte, v any, part func() any) []byte {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(part())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEverySourceServesTxnNodes: every source — empty, -data and -store —
// on 1 and 4 shards, with and without -durable, serves one *txn.DB per
// shard, and a seeded HTTP op stream (adds, batch adds, appends, removes,
// reads, range and kNN under D and DTW, explain, with folds at
// -checkpoint-every) gets the answers of the database mdsserve served
// without -durable before every node was transactional: shard.New, or the
// store's loaded database, edited in place. Writes are read-your-write, a
// -store directory is left as it was, and -store with -durable is refused.
func TestEverySourceServesTxnNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	corpus := make([]*core.Sequence, 40)
	var pool [][][]float64 // the corpus's points, which queries are cut from
	for i := range corpus {
		pool = append(pool, walk(rng, 20+rng.Intn(40)))
		corpus[i] = toSeq(fmt.Sprintf("c%02d", i), pool[i])
	}
	data := filepath.Join(t.TempDir(), "corpus.mds")
	if err := seqio.WriteFile(data, corpus); err != nil {
		t.Fatal(err)
	}
	const every = 8 // -checkpoint-every: several folds per node over the stream

	for _, shards := range []int{1, 4} {
		storeDir := filepath.Join(t.TempDir(), "store")
		sdb, err := shard.New(core.Options{Dim: 3}, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sdb.AddAll(corpus); err != nil {
			t.Fatal(err)
		}
		if err := store.SaveSharded(sdb, storeDir); err != nil {
			t.Fatal(err)
		}
		sdb.Close()

		for _, source := range []string{"empty", "data", "store"} {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d/durable=%v", source, shards, durable)
				t.Run(name, func(t *testing.T) {
					tc := txnConfig{noFsync: true, checkpointEvery: every}
					if durable {
						tc.dir = filepath.Join(t.TempDir(), "dur")
					}
					storeArg, dataArg := "", ""
					ref, err := shard.New(core.Options{Dim: 3}, shards)
					if err != nil {
						t.Fatal(err)
					}
					switch source {
					case "data":
						dataArg = data
						seqs, err := readData(data)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := ref.AddAll(seqs); err != nil {
							t.Fatal(err)
						}
					case "store":
						storeArg = storeDir
						ref.Close()
						if ref, err = store.LoadShardedWith(storeDir, store.LoadOptions{}); err != nil {
							t.Fatal(err)
						}
					}
					defer ref.Close()

					before := dirState(t, storeDir)
					db, nodes, err := openDB(storeArg, dataArg, 3, shards, tc)
					if source == "store" && durable {
						if err == nil || !strings.Contains(err.Error(), "exclusive") {
							t.Fatalf("-store with -durable: %v, want refused", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					served := txnNodes(t, db)
					if len(served) != shards || len(nodes) != shards {
						t.Fatalf("%d served nodes, %d returned, want %d", len(served), len(nodes), shards)
					}
					for i := range served {
						if served[i] != nodes[i] {
							t.Fatalf("node %d: openDB returned another node than it serves", i)
						}
					}
					folds := 0
					for _, n := range nodes {
						folds += int(n.Stats().Checkpoints)
					}

					p := servedPair{t: t, got: server.New(db), ref: server.New(ref)}
					rng := rand.New(rand.NewSource(int64(7 * shards)))
					replayOps(p, ref, rng, pool)

					// The stream commits more than every writes per node, so a
					// pacer folds; once one has, its new base answers as well.
					deadline := time.Now().Add(30 * time.Second)
					for {
						n := 0
						for _, node := range nodes {
							n += int(node.Stats().Checkpoints)
						}
						if n > folds {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("no fold at -checkpoint-every %d after the stream", every)
						}
						time.Sleep(5 * time.Millisecond)
					}
					queryRound(p, rng, pool)

					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if source == "store" {
						if after := dirState(t, storeDir); !reflect.DeepEqual(before, after) {
							t.Errorf("serving and writing to -store %s changed its files", storeDir)
						}
					}
				})
			}
		}
	}
}

// replayOps runs the seeded op stream on p, with queries cut from pool
// and from what it adds. Ids come from the reference's answers, starting
// with those of ref's corpus.
func replayOps(p servedPair, ref shard.DB, rng *rand.Rand, pool [][][]float64) {
	p.t.Helper()
	var ids []uint32
	for _, s := range ref.Sequences() {
		ids = append(ids, s.ID)
	}
	pool = slices.Clone(pool)
	pick := func() uint32 {
		if len(ids) == 0 || rng.Intn(10) == 0 {
			return uint32(rng.Intn(500)) // unknown, or removed
		}
		return ids[rng.Intn(len(ids))]
	}
	next := 0
	add := func() server.SequenceJSON {
		pts := walk(rng, 15+rng.Intn(40))
		pool = append(pool, pts)
		next++
		return server.SequenceJSON{Label: fmt.Sprintf("n%03d", next), Points: pts}
	}
	for op := 0; op < 160; op++ {
		switch r := rng.Intn(12); {
		case r < 2:
			code, body := p.send("POST", "/sequences", add())
			var res struct {
				ID uint32 `json:"id"`
			}
			if code == http.StatusCreated && json.Unmarshal(body, &res) == nil {
				ids = append(ids, res.ID)
				p.send("GET", fmt.Sprintf("/sequences/%d", res.ID), nil) // read-your-write
			}
		case r == 2:
			batch := struct {
				Sequences []server.SequenceJSON `json:"sequences"`
			}{}
			for range 2 + rng.Intn(3) {
				batch.Sequences = append(batch.Sequences, add())
			}
			code, body := p.send("POST", "/sequences/batch", batch)
			var res struct {
				IDs []uint32 `json:"ids"`
			}
			if code == http.StatusCreated && json.Unmarshal(body, &res) == nil {
				ids = append(ids, res.IDs...)
			}
		case r == 3:
			id := pick()
			p.send("POST", fmt.Sprintf("/sequences/%d/append", id), map[string]any{"points": walk(rng, 3+rng.Intn(8))})
			p.send("GET", fmt.Sprintf("/sequences/%d", id), nil)
		case r == 4:
			id := pick()
			p.send("DELETE", fmt.Sprintf("/sequences/%d", id), nil)
			p.send("GET", fmt.Sprintf("/sequences/%d", id), nil)
		default:
			queryOne(p, rng, pool, r)
		}
	}
	queryRound(p, rng, pool)
}

// queryRound sends one query of every kind, cut from pool and from
// random walks.
func queryRound(p servedPair, rng *rand.Rand, pool [][][]float64) {
	pool = slices.Clone(pool)
	for range 4 {
		pool = append(pool, walk(rng, 40))
	}
	for r := 5; r < 12; r++ {
		queryOne(p, rng, pool, r)
	}
}

// queryOne sends one read: r picks range D, range DTW, kNN D, kNN DTW,
// explain, the batch, or a whole-corpus range.
func queryOne(p servedPair, rng *rand.Rand, pool [][][]float64, r int) {
	src := pool[rng.Intn(len(pool))]
	from := rng.Intn(len(src))
	q := src[from:min(len(src), from+5+rng.Intn(20))]
	window := 8
	switch r {
	case 5:
		p.send("POST", "/search", server.SearchRequest{Points: q, Eps: 0.02 + 0.2*rng.Float64()})
	case 6:
		p.send("POST", "/search", server.SearchRequest{Points: q, Eps: 0.05 + 0.3*rng.Float64(), Metric: "dtw", DTWWindow: &window})
	case 7:
		p.send("POST", "/knn", server.KNNRequest{Points: q, K: 1 + rng.Intn(8)})
	case 8:
		p.send("POST", "/knn", server.KNNRequest{Points: q, K: 1 + rng.Intn(8), Metric: "dtw"})
	case 9:
		p.send("POST", "/explain", server.SearchRequest{Points: q, Eps: 0.05 + 0.2*rng.Float64()})
	case 10:
		p.send("POST", "/batch", server.BatchSearchRequest{Queries: [][][]float64{q, src[:min(len(src), 12)]}, Eps: 0.1})
	default:
		p.send("POST", "/search", server.SearchRequest{Points: q, Eps: 2})
	}
}
