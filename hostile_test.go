package mdseq_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mdseq "repro"
	"repro/internal/core"
	"repro/internal/seqio"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/txn"
)

// TestNonFiniteRejectedEverywhere is the hostile-input table for NaN and
// ±Inf coordinates: every entry point that takes points — on a plain, a
// sharded and a transactional database, through the file readers, the
// facade's free functions and HTTP — refuses them with ErrNonFinite (400
// over HTTP) and leaves the database as it was. The distance kernels rely
// on it: the branch-free MBR gap subtracts bounds, and Inf − Inf is NaN.
func TestNonFiniteRejectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// poisoned returns a walk with v in the middle of it, where no check
	// that only looks at the first point finds it.
	poisoned := func(v float64) *mdseq.Sequence {
		s := walk(rng, 40)
		s.Points[17][1] = v
		return s
	}
	dtw := core.MetricDTW{Window: -1}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	entry := []struct {
		name string
		call func(db shard.DB, bad *mdseq.Sequence) error
	}{
		{"Add", func(db shard.DB, bad *mdseq.Sequence) error { _, err := db.Add(bad); return err }},
		{"AddAll", func(db shard.DB, bad *mdseq.Sequence) error {
			_, err := db.AddAll([]*mdseq.Sequence{walk(rng, 30), bad})
			return err
		}},
		{"AppendPoints", func(db shard.DB, bad *mdseq.Sequence) error {
			return db.AppendPoints(db.Sequences()[0].ID, bad.Points)
		}},
		{"Search", func(db shard.DB, bad *mdseq.Sequence) error { _, _, err := db.Search(bad, 0.1); return err }},
		{"SearchParallel", func(db shard.DB, bad *mdseq.Sequence) error {
			_, _, err := db.SearchParallel(bad, 0.1, 2)
			return err
		}},
		{"SearchBatch", func(db shard.DB, bad *mdseq.Sequence) error {
			_, _, err := db.SearchBatch([]*mdseq.Sequence{walk(rng, 30), bad}, 0.1)
			return err
		}},
		{"SearchKNN", func(db shard.DB, bad *mdseq.Sequence) error { _, err := db.SearchKNN(bad, 3); return err }},
		{"SearchMetric/d", func(db shard.DB, bad *mdseq.Sequence) error {
			_, _, err := db.SearchMetric(bad, 0.1, core.MetricD{})
			return err
		}},
		{"SearchMetric/dtw", func(db shard.DB, bad *mdseq.Sequence) error {
			_, _, err := db.SearchMetric(bad, 0.1, dtw)
			return err
		}},
		{"SearchKNNMetric/d", func(db shard.DB, bad *mdseq.Sequence) error {
			_, err := db.SearchKNNMetric(bad, 3, core.MetricD{})
			return err
		}},
		{"SearchKNNMetric/dtw", func(db shard.DB, bad *mdseq.Sequence) error {
			_, err := db.SearchKNNMetric(bad, 3, dtw)
			return err
		}},
		{"SequentialSearch", func(db shard.DB, bad *mdseq.Sequence) error { _, err := db.SequentialSearch(bad, 0.1); return err }},
		{"SequentialSearchMetric", func(db shard.DB, bad *mdseq.Sequence) error {
			_, err := db.SequentialSearchMetric(bad, 0.1, dtw)
			return err
		}},
		{"Explain", func(db shard.DB, bad *mdseq.Sequence) error { _, err := db.Explain(bad, 0.1); return err }},
	}
	for _, tp := range []struct {
		name string
		open func() (shard.DB, error)
	}{
		{"core", func() (shard.DB, error) { return mdseq.Open(mdseq.Options{Dim: 3}) }},
		{"shard", func() (shard.DB, error) { return mdseq.OpenSharded(mdseq.Options{Dim: 3}, 3) }},
		{"txn", func() (shard.DB, error) { return txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true}) }},
	} {
		db, err := tp.open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 6; i++ {
			if _, err := db.Add(walk(rng, 50)); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range entry {
			for _, v := range nonFinite {
				if err := e.call(db, poisoned(v)); !errors.Is(err, mdseq.ErrNonFinite) {
					t.Errorf("%s %s with a %v coordinate: error %v, want ErrNonFinite", tp.name, e.name, v, err)
				}
			}
		}
		if first := db.Sequences()[0]; db.Len() != 6 || first.Len() != 50 {
			t.Errorf("%s: %d sequences, the first of %d points after the refused writes; want 6 and 50",
				tp.name, db.Len(), first.Len())
		}
		if _, _, err := db.Search(walk(rng, 30), 0.1); err != nil {
			t.Errorf("%s: a clean query after the refused ones: %v", tp.name, err)
		}
	}

	// The facade's free functions.
	bad := poisoned(math.NaN())
	if _, err := mdseq.NewSequence("bad", bad.Points); !errors.Is(err, mdseq.ErrNonFinite) {
		t.Errorf("NewSequence: error %v, want ErrNonFinite", err)
	}
	if _, err := mdseq.Partition(bad, mdseq.DefaultPartitionConfig()); !errors.Is(err, mdseq.ErrNonFinite) {
		t.Errorf("Partition: error %v, want ErrNonFinite", err)
	}

	// The file readers: Write refuses such a sequence, so a dataset is
	// written clean and one coordinate overwritten in place (magic 8, dim
	// 2, count 4, label length 2, empty label, point count 4: the first
	// coordinate is at byte 20).
	clean := walk(rng, 10)
	clean.Label = ""
	var buf bytes.Buffer
	if err := seqio.Write(&buf, []*mdseq.Sequence{clean}); err != nil {
		t.Fatal(err)
	}
	for _, v := range nonFinite {
		raw := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(raw[20+8*4:], math.Float64bits(v))
		if _, err := seqio.Read(bytes.NewReader(raw)); !errors.Is(err, mdseq.ErrNonFinite) || !errors.Is(err, seqio.ErrBadFormat) {
			t.Errorf("seqio.Read with a %v coordinate: error %v, want ErrBadFormat wrapping ErrNonFinite", v, err)
		}
		csv := fmt.Sprintf("a,0,0.1,0.2,0.3\na,1,0.1,%v,0.3\n", v)
		if _, err := seqio.ReadCSV(strings.NewReader(csv)); !errors.Is(err, mdseq.ErrNonFinite) {
			t.Errorf("seqio.ReadCSV with a %v coordinate: error %v, want ErrNonFinite", v, err)
		}
	}

	// HTTP: JSON has no spelling for them, and the scanner takes neither
	// the JavaScript names nor a literal that overflows.
	db, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	for _, lit := range []string{"NaN", "Infinity", "-Infinity", "1e999", "-1e999"} {
		for path, body := range map[string]string{
			"/sequences": `{"label":"x","points":[[0.1,0.2,0.3],[0.1,%s,0.3]]}`,
			"/search":    `{"points":[[0.1,0.2,0.3],[0.1,%s,0.3]],"eps":0.1}`,
			"/knn":       `{"points":[[0.1,0.2,0.3],[0.1,%s,0.3]],"k":2}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(fmt.Sprintf(body, lit)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with coordinate %s: status %d, want 400", path, lit, resp.StatusCode)
			}
		}
	}
	if db.Len() != 0 {
		t.Errorf("the server stored %d of the refused sequences", db.Len())
	}
}

// TestHugeKReturnsEverySequence is the hostile-input table for k: a
// request may say any int, and on every topology — with a transactional
// node's delta non-empty, where a list sized by k was an out-of-memory
// crash at 2⁴⁰ and k plus the delta's size wrapped negative at MaxInt — a k
// past the number of sequences returns them all, ranked, under D and DTW,
// from the library and over HTTP on a durable server.
func TestHugeKReturnsEverySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	// fill stores 12 sequences, folds them where there is something to fold
	// into, and leaves 6 more and two tombstones behind.
	fill := func(db shard.DB, fold func() error) {
		t.Helper()
		var ids []uint32
		for i := 0; i < 18; i++ {
			if i == 12 {
				if err := fold(); err != nil {
					t.Fatal(err)
				}
			}
			s := walk(rng, 40+rng.Intn(20))
			s.Label = fmt.Sprintf("s%02d", i) // a scatter places by label
			id, err := db.Add(s)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range []uint32{ids[1], ids[17]} {
			if err := db.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	durable := func() (*txn.DB, error) { return txn.Open(txn.Options{Dim: 3, Dir: t.TempDir(), NoFsync: true}) }
	const live = 16
	ks := []int{live + 5, 1 << 40, math.MaxInt}
	q := walk(rng, 30)
	for _, tp := range []struct {
		name string
		open func() (shard.DB, func() error, error)
	}{
		{"core", func() (shard.DB, func() error, error) {
			db, err := mdseq.Open(mdseq.Options{Dim: 3})
			return db, func() error { return nil }, err
		}},
		{"shard", func() (shard.DB, func() error, error) {
			db, err := mdseq.OpenSharded(mdseq.Options{Dim: 3}, 3)
			return db, func() error { return nil }, err
		}},
		{"txn", func() (shard.DB, func() error, error) {
			db, err := durable()
			if err != nil {
				return nil, nil, err
			}
			return db, db.Checkpoint, nil
		}},
	} {
		db, fold, err := tp.open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fill(db, fold)
		for _, m := range []core.Metric{core.MetricD{}, core.MetricDTW{Window: -1}} {
			all, err := db.SearchKNNMetric(q, live, m)
			if err != nil || len(all) != live {
				t.Fatalf("%s %s: %d neighbors at k = %d, err %v", tp.name, m.Name(), len(all), live, err)
			}
			for _, k := range ks {
				got, err := db.SearchKNNMetric(q, k, m)
				if err != nil {
					t.Fatalf("%s %s k %d: %v", tp.name, m.Name(), k, err)
				}
				if len(got) != live {
					t.Fatalf("%s %s k %d: %d neighbors, %d sequences are live", tp.name, m.Name(), k, len(got), live)
				}
				for i := range got {
					if got[i].SeqID != all[i].SeqID || got[i].Dist != all[i].Dist || (i > 0 && got[i].Dist < got[i-1].Dist) {
						t.Fatalf("%s %s k %d neighbor %d: {seq %d dist %v}, at k = %d it is {seq %d dist %v}",
							tp.name, m.Name(), k, i, got[i].SeqID, got[i].Dist, live, all[i].SeqID, all[i].Dist)
					}
				}
			}
		}
	}

	// HTTP, on what mdsserve -durable serves: a scatter over transactional
	// nodes, every node with a delta.
	nodes := make([]shard.Node, 2)
	for i := range nodes {
		node, err := durable()
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	sdb, err := shard.NewWithNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	fill(sdb, func() error {
		for _, n := range nodes {
			if err := n.(*txn.DB).Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	})
	for _, n := range nodes {
		if st := n.(*txn.DB).Stats(); st.DeltaAdds == 0 {
			t.Fatalf("a node's delta is empty: %+v", st)
		}
	}
	ts := httptest.NewServer(server.New(sdb))
	defer ts.Close()
	var points strings.Builder
	for i, p := range q.Points {
		if i > 0 {
			points.WriteByte(',')
		}
		fmt.Fprintf(&points, "[%v,%v,%v]", p[0], p[1], p[2])
	}
	for _, metric := range []string{"d", "dtw"} {
		for _, k := range ks {
			body := fmt.Sprintf(`{"points":[%s],"k":%d,"metric":%q,"dtwWindow":-1}`, points.String(), k, metric)
			resp, err := http.Post(ts.URL+"/knn", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var answer struct {
				Neighbors []server.NeighborJSON `json:"neighbors"`
			}
			err = json.NewDecoder(resp.Body).Decode(&answer)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil || len(answer.Neighbors) != live {
				t.Fatalf("POST /knn metric %s k %d: status %d, %d neighbors (decode error %v), want 200 and %d",
					metric, k, resp.StatusCode, len(answer.Neighbors), err, live)
			}
			for i := 1; i < live; i++ {
				if answer.Neighbors[i].Dist < answer.Neighbors[i-1].Dist {
					t.Fatalf("POST /knn metric %s k %d: neighbor %d at %v after one at %v",
						metric, k, i, answer.Neighbors[i].Dist, answer.Neighbors[i-1].Dist)
				}
			}
		}
	}
}
