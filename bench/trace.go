package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/txn"
)

// The traced run replays a workload's requests serially, in-process,
// through each nested public entry point in turn — one pass per layer over
// the same requests against a database built the way mdsserve builds it.
// A layer's self time is its pass's duration minus the next-inner pass's.
// No span is added inside the program: every span here wraps a call made
// from this file.

// Layer names, outermost first. They are the span names in the spans file.
const (
	layerLoopback = "http.loopback" // POST over loopback TCP to an in-process http.Server
	layerFull     = "server.full"   // Server.ServeHTTP with mdsserve's option set
	layerBare     = "server.bare"   // Server.ServeHTTP without options
	layerDB       = "db.call"       // the shard.DB method the handler calls
	layerNode     = "node.call"     // the slowest per-shard node's search
	layerPhase    = "core.phase"    // SearchStats.Phase1..3 of that search, suffixed 1..3
)

// maxPeel is how many requests of a workload the traced run replays.
const maxPeel = 2000

// Span sources: timed around a call made here, or a duration the program's
// own SearchStats reported.
const (
	srcCall  = "call"
	srcStats = "stats"
)

// span is one timed call: which layer, when, under which enclosing layer,
// for which replayed request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the peel began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	Req    int    `json:"req"`
	Src    string `json:"src"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: that is the spans-off replay trace.overhead_frac compares with.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name, parent string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req, Src: srcCall,
	})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openInProcess builds the workload's database the way mdsserve's openDB
// does for the same flags.
func openInProcess(e *env, in *inputs, prep *prepared) (shard.DB, error) {
	sp := in.spec
	var db shard.DB
	switch {
	case sp.durable:
		tdb, err := txn.Open(txn.Options{
			Dir: filepath.Join(e.work, "peel-durable"), Dim: in.corpus[0].Dim(),
			// No automatic folds: resetPass checkpoints instead, so every
			// pass starts from an empty delta and none is stalled by a
			// background fold the others did not meet.
		})
		if err != nil {
			return nil, err
		}
		if _, err := tdb.AddAll(in.corpus); err != nil {
			tdb.Close()
			return nil, err
		}
		if err := tdb.Checkpoint(); err != nil {
			tdb.Close()
			return nil, err
		}
		db = tdb
	case sp.store:
		sdb, err := store.LoadShardedWith(prep.dataDir, store.LoadOptions{FileIndex: true, Quantized: sp.quantized})
		if err != nil {
			return nil, err
		}
		db = sdb
	default:
		sdb, err := shard.New(core.Options{Dim: in.corpus[0].Dim(), QuantizedMBR: sp.quantized}, sp.shards)
		if err != nil {
			return nil, err
		}
		if _, err := sdb.AddAll(in.corpus); err != nil {
			sdb.Close()
			return nil, err
		}
		db = sdb
	}
	if sp.cacheEntries > 0 {
		db.SetCache(cache.New(cache.Config{MaxEntries: sp.cacheEntries}))
	}
	return db, nil
}

// nodes lists the per-shard databases behind db, or a plain database of
// the initial corpus standing in for a transactional database's private
// base.
func nodes(db shard.DB, base *core.Database) []shard.Backend {
	if sdb, ok := db.(*shard.ShardedDB); ok {
		out := make([]shard.Backend, sdb.Shards())
		for i := range out {
			out[i] = sdb.Shard(i)
		}
		return out
	}
	return []shard.Backend{base}
}

// ctxWriter and shardSearcher are the optional surfaces server's handlers
// probe for; the replay dispatches the same way.
type ctxWriter interface {
	AddCtx(context.Context, *core.Sequence) (uint32, error)
	AppendPointsCtx(context.Context, uint32, []geom.Point) error
}

type shardSearcher interface {
	SearchShardsCtx(context.Context, *core.Sequence, float64) ([]core.Match, core.SearchStats, []shard.ShardStats, error)
}

// peel is the replay state of one workload.
type peel struct {
	in     *inputs
	db     shard.DB
	nodes  []shard.Backend
	full   *server.Server
	bare   *server.Server
	ts     *httptest.Server
	client *http.Client
	n      int // requests per pass
	// cacheHits is the query cache's hit counter, nil when the workload
	// runs cache-off.
	cacheHits *obs.Counter
	// meter gives each pass's machine speed: the passes run one after
	// another, and a layer's self time is a difference between two of them.
	meter *speedMeter

	added  []uint32 // ids this pass's adds got, for its appends
	addSeq int

	// One replay per layer over the same requests.
	loop, fullP, bareP, dbP passResult
	// Per-request results of the inner measurements.
	decode   []time.Duration
	encode   []time.Duration
	respB    []int
	cached   []bool
	phases   [][3]time.Duration // slowest node's Phase1..3
	nodeWall []time.Duration
	// quantPruned and quantPairs count, over the node pass, the (query MBR,
	// candidate) pairs the quantized prefilter dismissed and all such pairs.
	quantPruned, quantPairs int

	pagerStats pager.Stats // delta over the db.call pass
}

func newPeel(e *env, in *inputs, prep *prepared, base *core.Database) (*peel, error) {
	db, err := openInProcess(e, in, prep)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	var hits *obs.Counter
	if qc := db.QueryCache(); qc != nil {
		// As mdsserve wires it. The hit counter is how the replay tells a
		// cached answer: a transactional database clears SearchStats.CacheHit
		// whenever its delta is not empty.
		qc.SetMetrics(cache.NewMetrics(reg, "core"))
		hits = reg.Counter("mdseq_cache_hits_total", "Query-cache lookups served from a live entry.",
			obs.Label{Key: "cache", Value: "core"})
	}
	p := &peel{
		cacheHits: hits,
		meter:     startSpeedMeter(),
		in:        in, db: db, nodes: nodes(db, base),
		// mdsserve's option set at its flag defaults.
		full: server.New(db,
			server.WithMetrics(reg),
			server.WithLogger(logger),
			server.WithSlowQueryThreshold(server.DefaultSlowQueryThreshold),
			server.WithPprof(false),
			server.WithRecorder(obs.NewRecorder(obs.RecorderConfig{PerBucket: 4}))),
		bare: server.New(db),
	}
	p.ts = httptest.NewServer(p.full)
	p.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return p, nil
}

func (p *peel) close() {
	p.meter.stop()
	p.client.CloseIdleConnections()
	p.ts.Close()
	p.db.Close()
}

// resetPass returns the database-side state every pass must start from: an
// empty query cache, so each pass meets the same hit/miss sequence, and an
// empty delta.
func (p *peel) resetPass() error {
	if qc := p.db.QueryCache(); qc != nil {
		qc.Purge()
	}
	p.added = p.added[:0]
	if tdb, ok := p.db.(*txn.DB); ok {
		return tdb.Checkpoint()
	}
	return nil
}

// wire renders request i's HTTP form for this pass. Writes get a fresh
// label or a target this pass added.
func (p *peel) wire(i int) (path string, body []byte) {
	r := &p.in.stream[i]
	switch {
	case r.kind == kindAppend && len(p.added) > 0:
		return fmt.Sprintf("/sequences/%d/append", p.added[r.pick%len(p.added)]), appendBody(r.points)
	case r.kind.isWrite():
		// An add, or an append with nothing of this pass's to extend yet.
		p.addSeq++
		return "/sequences", addBody(fmt.Sprintf("%speel-%d", writeLabelPrefix, p.addSeq), r.points)
	}
	return r.path, r.body
}

// noteAdd remembers the id an add returned so later appends can use it.
func (p *peel) noteAdd(path string, resp []byte) {
	if path != "/sequences" {
		return
	}
	var ack struct {
		ID uint32 `json:"id"`
	}
	if json.Unmarshal(resp, &ack) == nil {
		p.added = append(p.added, ack.ID)
	}
}

// viaLoopback sends request i over TCP to the in-process http.Server.
func (p *peel) viaLoopback(i int) error {
	path, body := p.wire(i)
	resp, err := p.client.Post(p.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: %s", path, resp.Status, out)
	}
	p.noteAdd(path, out)
	return nil
}

// viaHandler calls a Server's ServeHTTP directly.
func (p *peel) viaHandler(s *server.Server, i int) ([]byte, error) {
	path, body := p.wire(i)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code > 299 {
		return nil, fmt.Errorf("%s %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	out := rec.Body.Bytes()
	p.noteAdd(path, out)
	return out, nil
}

// viaDB calls the database method server's handler would, and reports
// whether the answer came from the query cache.
func (p *peel) viaDB(i int) (cached bool, err error) {
	r := &p.in.stream[i]
	ctx := context.Background()
	var hits0 uint64
	if p.cacheHits != nil {
		hits0 = p.cacheHits.Value()
	}
	switch r.kind {
	case kindSearch:
		if ss, ok := p.db.(shardSearcher); ok {
			_, _, _, err = ss.SearchShardsCtx(ctx, r.q, r.eps)
		} else {
			_, _, err = p.db.SearchCtx(ctx, r.q, r.eps)
		}
	case kindSearchDTW:
		_, _, err = p.db.SearchMetricCtx(ctx, r.q, r.eps, r.metric())
	case kindKNN:
		_, err = p.db.SearchKNNCtx(ctx, r.q, r.k)
	case kindKNNDTW:
		_, err = p.db.SearchKNNMetricCtx(ctx, r.q, r.k, r.metric())
	case kindAdd, kindAppend:
		return false, p.writeDB(ctx, i)
	}
	return p.cacheHits != nil && p.cacheHits.Value() > hits0, err
}

// writeDB applies write request i through the database's write surface.
func (p *peel) writeDB(ctx context.Context, i int) error {
	r := &p.in.stream[i]
	cw, hasCtx := p.db.(ctxWriter)
	if r.kind == kindAppend && len(p.added) > 0 {
		id := p.added[r.pick%len(p.added)]
		if hasCtx {
			return cw.AppendPointsCtx(ctx, id, r.seq.Points)
		}
		return p.db.AppendPoints(id, r.seq.Points)
	}
	seq := &core.Sequence{Label: fmt.Sprintf("%speel-db-%d", writeLabelPrefix, i), Points: r.seq.Points}
	var id uint32
	var err error
	if hasCtx {
		id, err = cw.AddCtx(ctx, seq)
	} else {
		id, err = p.db.Add(seq)
	}
	p.added = append(p.added, id)
	return err
}

// viaNodes runs request i's search on every per-shard node in turn and
// returns the slowest one's wall time and phases. Only range searches
// have a node-level form with statistics.
func (p *peel) viaNodes(i int) (time.Duration, [3]time.Duration, error) {
	r := &p.in.stream[i]
	ctx := context.Background()
	var worst time.Duration
	var ph [3]time.Duration
	for _, nd := range p.nodes {
		var st core.SearchStats
		var err error
		t0 := time.Now()
		if r.kind == kindSearchDTW {
			_, st, err = nd.SearchMetricCtx(ctx, r.q, r.eps, r.metric())
		} else {
			_, st, err = nd.SearchCtx(ctx, r.q, r.eps)
		}
		d := time.Since(t0)
		if err != nil {
			return 0, ph, err
		}
		p.quantPruned += st.QuantPruned
		p.quantPairs += st.QueryMBRs * st.CandidatesDmbr
		if d > worst {
			worst, ph = d, [3]time.Duration{st.Phase1, st.Phase2, st.Phase3}
		}
	}
	return worst, ph, nil
}

// hasNodeForm reports whether request i is replayed at node level: an
// uncached range search (under D or DTW).
func (p *peel) hasNodeForm(i int) bool {
	k := p.in.stream[i].kind
	return (k == kindSearch || k == kindSearchDTW) && !p.cached[i]
}

// passResult is one layer's replay: per-request durations and the heap
// allocations the whole pass made, per request.
type passResult struct {
	dur               []time.Duration
	allocs, allocByte float64
}

// pass replays requests [0,n) through one layer, timing each call. With a
// deadline it stops early; len(dur) is how many requests it completed. The
// durations it returns are at the reference machine's speed (the spans keep
// the times as measured).
func (p *peel) pass(name, parent string, n int, tr *tracer, deadline time.Time, call func(i int) error) (passResult, error) {
	res := passResult{dur: make([]time.Duration, 0, n)}
	if err := p.resetPass(); err != nil {
		return res, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	began := time.Now()
	for i := 0; i < n; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		t0 := time.Now()
		err := call(i)
		t1 := time.Now()
		if err != nil {
			return res, fmt.Errorf("replaying request %d through %s: %w", i, name, err)
		}
		res.dur = append(res.dur, t1.Sub(t0))
		tr.record(name, parent, i, t0, t1)
	}
	speed := p.meter.between(began, time.Now())
	atReference(speed, res.dur)
	runtime.ReadMemStats(&m1)
	if done := float64(len(res.dur)); done > 0 {
		res.allocs = float64(m1.Mallocs-m0.Mallocs) / done
		res.allocByte = float64(m1.TotalAlloc-m0.TotalAlloc) / done
	}
	return res, nil
}

// run replays the workload through every layer and returns the spans and
// the tracing overhead. firstPass bounds the outermost pass: the requests it
// completes are the ones every later pass replays.
func (p *peel) run(firstPass time.Duration) (*tracer, float64, error) {
	n := min(maxPeel, len(p.in.stream))
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, n*10)}
	// An unrecorded pass first: pools, heap and connection warm up outside
	// the layer that would otherwise be charged for it.
	if _, err := p.pass(layerLoopback, "", n, nil, time.Now().Add(firstPass/2), p.viaLoopback); err != nil {
		return nil, 0, err
	}
	var err error
	if p.loop, err = p.pass(layerLoopback, "", n, tr, time.Now().Add(firstPass), p.viaLoopback); err != nil {
		return nil, 0, err
	}
	n = len(p.loop.dur)
	p.n = n
	p.decode = make([]time.Duration, n)
	p.encode = make([]time.Duration, n)
	p.respB = make([]int, n)
	p.cached = make([]bool, n)
	p.phases = make([][3]time.Duration, n)
	p.nodeWall = make([]time.Duration, n)

	if p.fullP, err = p.pass(layerFull, layerLoopback, n, tr, time.Time{}, func(i int) error {
		_, err := p.viaHandler(p.full, i)
		return err
	}); err != nil {
		return nil, 0, err
	}

	// The bare pass also keeps each answer, for the codec timing below.
	answers := make([][]byte, n)
	bare := func(i int) error {
		out, err := p.viaHandler(p.bare, i)
		answers[i] = bytes.Clone(out)
		p.respB[i] = len(out)
		return err
	}
	if p.bareP, err = p.pass(layerBare, layerFull, n, tr, time.Time{}, bare); err != nil {
		return nil, 0, err
	}
	// The same pass with spans off: the difference is what tracing costs.
	off, err := p.pass(layerBare, layerFull, n, nil, time.Time{}, bare)
	if err != nil {
		return nil, 0, err
	}
	overhead := float64(sum(p.bareP.dur)-sum(off.dur)) / float64(max(sum(off.dur), 1))

	if err := p.codec(answers, tr); err != nil {
		return nil, 0, err
	}

	before := p.pagerStatsNow()
	if p.dbP, err = p.pass(layerDB, layerBare, n, tr, time.Time{}, func(i int) error {
		c, err := p.viaDB(i)
		p.cached[i] = c
		return err
	}); err != nil {
		return nil, 0, err
	}
	after := p.pagerStatsNow()
	p.pagerStats = pager.Stats{Fetches: after.Fetches - before.Fetches, Hits: after.Hits - before.Hits, Reads: after.Reads - before.Reads}

	// Node level: the slowest shard's search alone. Its phases are laid end
	// to end from the call's start, as its SearchStats report them.
	starts := make([]time.Time, n)
	nodesBegan := time.Now()
	if _, err = p.pass(layerNode, layerDB, n, nil, time.Time{}, func(i int) error {
		if !p.hasNodeForm(i) {
			return nil
		}
		starts[i] = time.Now()
		var err error
		p.nodeWall[i], p.phases[i], err = p.viaNodes(i)
		return err
	}); err != nil {
		return nil, 0, err
	}
	nodesSpeed := p.meter.between(nodesBegan, time.Now())
	ns := func(t time.Time) int64 { return t.Sub(tr.t0).Nanoseconds() }
	for i, t0 := range starts {
		if t0.IsZero() {
			continue
		}
		tr.spans = append(tr.spans, span{Name: layerNode, Start: ns(t0), End: ns(t0.Add(p.nodeWall[i])), Parent: layerDB, Req: i, Src: srcCall})
		at := t0
		for k, d := range p.phases[i] {
			tr.spans = append(tr.spans, span{Name: fmt.Sprintf("%s%d", layerPhase, k+1), Start: ns(at), End: ns(at.Add(d)), Parent: layerNode, Req: i, Src: srcStats})
			at = at.Add(d)
		}
		atReference(nodesSpeed, p.nodeWall[i:i+1])
		atReference(nodesSpeed, p.phases[i][:])
	}
	return tr, overhead, nil
}

// codec times encoding/json on each replayed request's own body and answer:
// Unmarshal into the server's request type, Marshal of its response type.
func (p *peel) codec(answers [][]byte, tr *tracer) error {
	began := time.Now()
	defer func() {
		speed := p.meter.between(began, time.Now())
		atReference(speed, p.decode)
		atReference(speed, p.encode)
	}()
	for i := 0; i < p.n; i++ {
		r := &p.in.stream[i]
		var reqV, respV any
		switch r.kind {
		case kindSearch, kindSearchDTW:
			reqV, respV = &server.SearchRequest{}, &server.SearchResponse{}
		case kindKNN, kindKNNDTW:
			reqV, respV = &server.KNNRequest{}, &struct {
				Neighbors []server.NeighborJSON `json:"neighbors"`
			}{}
		default:
			reqV, respV = &server.SequenceJSON{}, &map[string]uint32{}
		}
		body := p.requestBody(i)
		t0 := time.Now()
		if err := json.Unmarshal(body, reqV); err != nil {
			return fmt.Errorf("decoding request %d: %w", i, err)
		}
		t1 := time.Now()
		if err := json.Unmarshal(answers[i], respV); err != nil {
			return fmt.Errorf("decoding answer %d: %w", i, err)
		}
		t2 := time.Now()
		if _, err := json.Marshal(respV); err != nil {
			return err
		}
		t3 := time.Now()
		p.decode[i], p.encode[i] = t1.Sub(t0), t3.Sub(t2)
		tr.record("server.decode", layerBare, i, t0, t1)
		tr.record("server.encode", layerBare, i, t2, t3)
	}
	return nil
}

// requestBody is request i's body as the decoder meets it. Unlike wire it
// binds nothing: which label a write carries does not change the timing.
func (p *peel) requestBody(i int) []byte {
	r := &p.in.stream[i]
	if r.kind.isWrite() {
		return addBody("w", r.points)
	}
	return r.body
}

func (p *peel) pagerStatsNow() pager.Stats {
	var total pager.Stats
	for _, nd := range p.nodes {
		if cdb, ok := nd.(*core.Database); ok {
			st := cdb.PagerStats()
			total.Fetches += st.Fetches
			total.Hits += st.Hits
			total.Reads += st.Reads
		}
	}
	return total
}

// atReference rescales durations measured at the given machine speed to
// what the reference machine would have taken.
func atReference(speed float64, ds []time.Duration) {
	for i := range ds {
		ds[i] = time.Duration(float64(ds[i]) * speed)
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// peelTable is the per-layer account of one workload: rows of mean
// microseconds per replayed request that, with unattributed_us, sum to the
// loopback wall time.
type peelTable struct {
	Requests       int                `json:"requests"`
	WallUS         float64            `json:"wall_us"`
	Rows           map[string]float64 `json:"rows"`
	UnattributedUS float64            `json:"unattributed_us"`
}

// rowOrder is the order the table prints in, outermost layer first.
var rowOrder = []string{
	"http.loopback_self_us", "obs.self_us", "server.decode_us", "server.encode_us",
	"shard.self_us", "txn.delta_self_us", "txn.write_us", "cache.hit_us", "core.knn_us",
	"core.partition_us", "core.filter_us", "core.refine_us", "core.other_us",
}

// table folds the per-request durations into rows. Every row is a sum over
// the requests it applies to, divided by all requests, so rows add up.
func (p *peel) table() peelTable {
	n := float64(p.n)
	rows := map[string]float64{}
	add := func(row string, d time.Duration) { rows[row] += float64(d) / float64(time.Microsecond) / n }
	_, transactional := p.db.(*txn.DB)
	for i := 0; i < p.n; i++ {
		d := [4]time.Duration{p.loop.dur[i], p.fullP.dur[i], p.bareP.dur[i], p.dbP.dur[i]}
		add("http.loopback_self_us", d[0]-d[1])
		add("obs.self_us", d[1]-d[2])
		add("server.decode_us", p.decode[i])
		add("server.encode_us", p.encode[i])
		k := p.in.stream[i].kind
		switch {
		case k.isWrite():
			add("txn.write_us", d[3])
		case p.cached[i]:
			add("cache.hit_us", d[3])
		case k == kindKNN || k == kindKNNDTW:
			add("core.knn_us", d[3])
		default:
			above := "shard.self_us"
			if transactional {
				above = "txn.delta_self_us"
			}
			add(above, d[3]-p.nodeWall[i])
			ph := p.phases[i]
			add("core.partition_us", ph[0])
			add("core.filter_us", ph[1])
			add("core.refine_us", ph[2])
			add("core.other_us", p.nodeWall[i]-ph[0]-ph[1]-ph[2])
		}
	}
	t := peelTable{Requests: p.n, WallUS: float64(sum(p.loop.dur)) / float64(time.Microsecond) / n, Rows: rows}
	t.UnattributedUS = t.WallUS
	for _, v := range rows {
		t.UnattributedUS -= v
	}
	return t
}

func (t peelTable) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "  layer row\tus/request\tshare\t\n")
	for _, name := range rowOrder {
		if v, ok := t.Rows[name]; ok && v != 0 {
			fmt.Fprintf(tw, "  %s\t%.1f\t%.1f%%\t\n", name, v, 100*v/t.WallUS)
		}
	}
	fmt.Fprintf(tw, "  unattributed_us\t%.1f\t%.1f%%\t\n", t.UnattributedUS, 100*t.UnattributedUS/t.WallUS)
	fmt.Fprintf(tw, "  = http.loopback wall\t%.1f\t(%d requests)\t\n", t.WallUS, t.Requests)
	tw.Flush()
}

// layers turns the replay into per-layer metrics.
func (p *peel) layers(ms metricSet, t peelTable, overhead float64) {
	n := float64(p.n)
	mean := func(ds []time.Duration) float64 { return float64(sum(ds)) / float64(time.Microsecond) / n }
	var respB float64
	for _, b := range p.respB[:p.n] {
		respB += float64(b)
	}
	ms.set("http.loopback_self_us", "us", t.Rows["http.loopback_self_us"])
	ms.set("obs.self_us", "us", t.Rows["obs.self_us"])
	ms.set("server.self_us", "us", mean(p.bareP.dur)-mean(p.dbP.dur))
	ms.set("server.decode_us", "us", t.Rows["server.decode_us"])
	ms.set("server.encode_us", "us", t.Rows["server.encode_us"])
	ms.set("server.resp_bytes", "B", respB/n)
	ms.set("server.allocs_per_req", "count", p.bareP.allocs)
	ms.set("server.alloc_bytes_per_req", "B", p.bareP.allocByte)
	ms.set("shard.self_us", "us", t.Rows["shard.self_us"])
	ms.set("txn.delta_self_us", "us", t.Rows["txn.delta_self_us"])
	ms.set("txn.write_us", "us", t.Rows["txn.write_us"])
	ms.set("cache.hit_us", "us", t.Rows["cache.hit_us"])
	ms.set("core.other_us", "us", t.Rows["core.other_us"])
	ms.set("core.search_allocs_per_query", "count", p.dbP.allocs)
	ms.set("core.quant_pruned_frac", "ratio", float64(p.quantPruned)/float64(max(p.quantPairs, 1)))
	ms.set("pager.hit_ratio", "ratio", p.pagerStats.HitRatio())
	ms.set("pager.reads_per_query", "count", float64(p.pagerStats.Reads)/n)
	ms.set("trace.wall_us", "us", t.WallUS)
	ms.set("trace.unattributed_us", "us", t.UnattributedUS)
	ms.set("trace.overhead_frac", "ratio", overhead)
}
