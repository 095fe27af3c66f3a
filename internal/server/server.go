// Package server exposes a sequence database over HTTP/JSON: ingest,
// search (range, k-NN), streaming append, explain, and stats. It is the
// serving layer for mdseq (cmd/mdsserve), stdlib net/http only. The
// database behind it is anything satisfying shard.DB — a single-node
// *core.Database or a scatter-gather *shard.ShardedDB — so topology is a
// deployment choice, invisible to clients.
//
// Endpoints:
//
//	GET    /healthz                   liveness + shard/sequence counts
//	GET    /stats                     database shape
//	GET    /metrics                   Prometheus text exposition (with WithMetrics)
//	GET    /txnz                      commit/snapshot stats (transactional databases: every mdsserve)
//	GET    /debug/pprof/...           runtime profiles (with WithPprof)
//	GET    /debug/tracez              retained traces: recent + slowest per latency
//	                                  bucket + errored (with WithRecorder; ?format=text
//	                                  renders span trees)
//	GET    /debug/requestz            in-flight requests with age (with WithRecorder)
//	POST   /sequences                 {label, points} -> {id}
//	POST   /sequences/batch           {sequences:[...]} -> {ids}
//	GET    /sequences/{id}            stored sequence
//	DELETE /sequences/{id}            remove
//	POST   /sequences/{id}/append     {points}
//	POST   /search                    {points, eps, metric, dtwWindow} -> matches
//	POST   /batch                     {queries:[[...],...], eps} -> per-query matches
//	POST   /knn                       {points, k, metric, dtwWindow} -> neighbors
//	POST   /explain                   {points, eps} -> per-sequence decisions
//
// Points are JSON arrays of coordinate arrays: [[x1,x2,x3], ...].
//
// Caching: with a query-result cache attached (mdsserve -cache-entries /
// -cache-bytes), repeated /search, /batch, and /knn queries are served
// from a cost-aware cache. A write removes exactly the entries whose
// query regions it can affect — queries over untouched regions keep
// hitting — and clients never see pre-write results. /search and
// /batch responses carry an X-Mdseq-Cache header (hit / miss / mixed)
// and a per-result "cached" field.
//
// Wire path: the exported types below are the documented JSON schema, but
// the request path does not reflect over them. Request bodies are decoded
// by one scanner (decode.go) and the /search, /batch and /knn answers are
// appended straight from the database's result slices into a pooled byte
// buffer (wire.go); both are held to encoding/json on the schema types —
// same accepted bodies and values, byte-identical answers — by the tests.
// The remaining replies (stats, acks, errors) go through encoding/json.
//
// Observability: with WithMetrics the database is wired into the given
// registry and /metrics serves it; with WithLogger every request emits a
// canonical wide-event log line (request ID, method, path, status,
// duration, plus every span timing and attribute the query recorded) and
// any query slower than the slow-query threshold additionally dumps its
// full SearchStats — per-shard stats included on a sharded database — at
// warn level under the same request ID, annotated with the latency
// histogram bucket (`le`) it landed in. With WithRecorder the flight
// recorder retains the slowest and errored traces for /debug/tracez and
// tracks in-flight requests for /debug/requestz. Every response carries
// an X-Request-ID header for correlation; a client-supplied X-Request-ID
// (≤64 chars, [A-Za-z0-9._-]) is honored so traces correlate across
// services.
//
// Robustness: /search and /knn run under the request context, so a
// client disconnect or a request deadline cancels the query all the way
// down into the per-shard searches. A query that cannot be served
// within its deadline returns 504 instead of hanging, and a shard error
// fails the query: an answer is every shard's or none.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/txn"
)

// maxBodyBytes bounds request bodies (64 MiB covers any realistic batch).
const maxBodyBytes = 64 << 20

// DefaultSlowQueryThreshold is the slow-query log cutoff in force unless
// WithSlowQueryThreshold overrides it.
const DefaultSlowQueryThreshold = 500 * time.Millisecond

// Server handles HTTP requests against one database.
type Server struct {
	db      shard.DB
	mux     *http.ServeMux
	handler http.Handler // mux, possibly wrapped in obs middleware

	reg        *obs.Registry
	logger     *slog.Logger
	rec        *obs.Recorder
	slowThresh time.Duration
	pprof      bool

	defMetric string // metric applied when a request omits "metric"
	defWindow int    // DTW window applied when a request omits "dtwWindow"
}

// Option configures a Server at construction.
type Option func(*Server)

// WithMetrics wires the server and its database into reg: the database
// records query/ingest activity there (db.SetMetrics), HTTP traffic is
// counted and timed, and GET /metrics serves the registry in Prometheus
// text format.
func WithMetrics(reg *obs.Registry) Option { return func(s *Server) { s.reg = reg } }

// WithLogger enables structured request logging and the slow-query log.
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.logger = l } }

// WithSlowQueryThreshold sets the latency above which a search or kNN
// query is dumped to the slow-query log (0 disables; default
// DefaultSlowQueryThreshold). Takes effect only with WithLogger.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(s *Server) { s.slowThresh = d }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ — behind a flag
// because profiles expose internals and cost CPU while streaming.
func WithPprof(enable bool) Option { return func(s *Server) { s.pprof = enable } }

// WithDefaultMetric sets the metric applied to /search and /knn requests
// that omit the "metric" field ("" keeps D), and the Sakoe–Chiba window
// applied when "dtwWindow" is omitted. A request that names a metric or
// a window always overrides the default. The pair is validated lazily at
// request time through the same core.ParseMetric path as explicit
// requests, so a bad default fails each affected request with 400 rather
// than crashing the server.
func WithDefaultMetric(name string, window int) Option {
	return func(s *Server) {
		s.defMetric = name
		s.defWindow = window
	}
}

// WithRecorder wires a flight recorder: every request is tracked
// in-flight and retained per the recorder's sampling (slowest per latency
// bucket plus all errors), served at GET /debug/tracez
// (?format=text for span trees) and GET /debug/requestz (in-flight
// table). nil disables.
func WithRecorder(rec *obs.Recorder) Option { return func(s *Server) { s.rec = rec } }

// New builds a Server around db (single-node or sharded).
func New(db shard.DB, opts ...Option) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), slowThresh: DefaultSlowQueryThreshold, defWindow: -1}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /txnz", s.handleTxnz)
	s.mux.HandleFunc("POST /sequences", s.handleAdd)
	s.mux.HandleFunc("POST /sequences/batch", s.handleAddBatch)
	s.mux.HandleFunc("GET /sequences/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /sequences/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /sequences/{id}/append", s.handleAppend)
	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /knn", s.handleKNN)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	if s.reg != nil {
		db.SetMetrics(s.reg)
		s.mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	}
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if s.rec != nil {
		s.mux.Handle("GET /debug/tracez", obs.TracezHandler(s.rec))
		s.mux.Handle("GET /debug/requestz", obs.RequestzHandler(s.rec))
	}
	s.handler = http.Handler(s.mux)
	if s.reg != nil || s.logger != nil || s.rec != nil {
		s.handler = obs.Middleware(s.reg, s.logger, s.rec, s.handler)
	}
	return s
}

// ServeHTTP implements http.Handler. Every request body — POST handlers
// included — is capped by MaxBytesReader before the mux dispatches, so an
// oversized batch fails with 413 instead of exhausting memory. When
// observability is wired the mux sits behind obs.Middleware, which
// supplies the per-request Trace, log line, and HTTP metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	s.handler.ServeHTTP(w, r)
}

// --- wire types ---------------------------------------------------------

// SequenceJSON is the wire form of a sequence.
type SequenceJSON struct {
	ID     uint32      `json:"id,omitempty"` // database id (assigned on add, echoed on get)
	Label  string      `json:"label"`        // free-form name, also the shard placement key
	Points [][]float64 `json:"points"`       // one n-dimensional coordinate array per point
}

// SearchRequest is the body of POST /search and /explain.
type SearchRequest struct {
	Points [][]float64 `json:"points"` // the query sequence's points
	Eps    float64     `json:"eps"`    // similarity threshold ε
	// Metric selects the distance the result set is defined by: "" or
	// "d" for the exact alignment distance D (the default three-phase
	// search), "dtw" for dynamic time warping served through the
	// envelope-pruned metric path, whose matches carry exact distances
	// instead of solution intervals. /explain covers "d" only and refuses
	// a body that names another metric.
	Metric string `json:"metric,omitempty"`
	// DTWWindow is the Sakoe–Chiba band half-width for metric "dtw":
	// -1 (or omitted) means unconstrained. Ignored for metric "d".
	DTWWindow *int `json:"dtwWindow,omitempty"`
}

// KNNRequest is the body of POST /knn.
type KNNRequest struct {
	Points [][]float64 `json:"points"` // the query sequence's points
	K      int         `json:"k"`      // how many nearest sequences to return
	// Metric and DTWWindow mirror SearchRequest: "dtw" ranks neighbors
	// by exact DTW distance (offset is then always 0 — warping has no
	// single alignment offset).
	Metric    string `json:"metric,omitempty"`    // distance the ranking is defined by: "", "d", or "dtw"
	DTWWindow *int   `json:"dtwWindow,omitempty"` // Sakoe–Chiba half-width for "dtw"; nil/-1 = unconstrained
}

// query maps a decoded /search or /knn body to the Query it asks for: the
// kind is the endpoint's, and the metric the body's fields over the
// server's defaults — an omitted name falls back to WithDefaultMetric's
// metric, an omitted (nil) window to its window (-1, unconstrained, when
// the option was never set). A metric other than "d" makes it that
// metric's query; "" and "d" leave Metric nil — the paper's answer with
// solution intervals for a range search, D for a kNN.
func (s *Server) query(req *body, kind core.Kind) (core.Query, error) {
	seq, err := core.NewSequence("query", req.Points)
	if err != nil {
		return core.Query{}, err
	}
	q := core.Query{Seq: seq, Kind: kind, Eps: req.Eps, K: req.K}
	name := req.Metric
	if name == "" {
		name = s.defMetric
	}
	if name != "" && name != "d" {
		w := s.defWindow
		if req.DTWWindow != nil {
			w = *req.DTWWindow
		}
		q.Metric, err = core.ParseMetric(name, w)
	}
	return q, err
}

// BatchSearchRequest is the body of POST /batch: several queries sharing
// one threshold, answered in one batched pass over the database.
type BatchSearchRequest struct {
	// Queries holds one point array per query, same format as
	// SearchRequest.Points.
	Queries [][][]float64 `json:"queries"`
	Eps     float64       `json:"eps"` // threshold shared by every query in the batch
}

// BatchSearchResponse is the body returned by POST /batch: one
// SearchResponse per query, in input order.
type BatchSearchResponse struct {
	Results []SearchResponse `json:"results"` // one response per query, in input order
}

// MatchJSON is one range-search result. For the default metric "d",
// MinDnorm and Intervals carry the paper's filter output; for a metric
// search ("dtw", or "d" requested explicitly) Dist carries the exact
// metric distance and Intervals is empty.
type MatchJSON struct {
	ID        uint32   `json:"id"`             // database id of the matching sequence
	Label     string   `json:"label"`          // its label
	MinDnorm  float64  `json:"minDnorm"`       // the filter lower bound (metric "d" default path)
	Intervals [][2]int `json:"intervals"`      // approximated solution intervals, [start,end) pairs
	Dist      float64  `json:"dist,omitempty"` // exact metric distance (metric searches only)
}

// SearchResponse is the body returned by POST /search. The phase
// durations are microseconds; for a sharded database they are the slowest
// shard's (phases overlap in wall-clock) and cpuUs sums across shards.
type SearchResponse struct {
	Matches []MatchJSON `json:"matches"` // sequences within ε, ascending id
	// Cached is true when the answer was served from the query-result
	// cache (mdsserve -cache-entries) instead of being computed; the
	// stats then describe the run that originally produced it. Also
	// surfaced as the X-Mdseq-Cache response header (hit/miss).
	Cached bool `json:"cached,omitempty"`
	// ShardsAnswered lists the shard indexes whose results Matches
	// covers — every shard, in ascending order. Present whenever the
	// per-shard search path ran (sharded database).
	ShardsAnswered []int `json:"shardsAnswered,omitempty"`
	// Stats carries the search's per-phase work counters and timings.
	Stats struct {
		QueryMBRs      int   `json:"queryMBRs"`
		Candidates     int   `json:"candidates"`
		TotalSequences int   `json:"totalSequences"`
		Phase1Us       int64 `json:"phase1Us"`
		Phase2Us       int64 `json:"phase2Us"`
		Phase3Us       int64 `json:"phase3Us"`
		CPUUs          int64 `json:"cpuUs"`
	} `json:"stats"`
}

// NeighborJSON is one k-NN result.
type NeighborJSON struct {
	ID     uint32  `json:"id"`     // database id of the neighbor
	Label  string  `json:"label"`  // its label
	Dist   float64 `json:"dist"`   // exact distance (D, or normalized DTW for metric "dtw")
	Offset int     `json:"offset"` // best alignment offset (always 0 under DTW)
}

// ExplainResponse summarizes POST /explain.
type ExplainResponse struct {
	PrunedDmbr  int                  `json:"prunedDmbr"`  // candidates dismissed by the phase-2 MBR bound
	PrunedDnorm int                  `json:"prunedDnorm"` // candidates dismissed by the phase-3 Dnorm bound
	Matched     int                  `json:"matched"`     // sequences that survived to the result set
	Sequences   []ExplainedCandidate `json:"sequences"`   // per-sequence decisions, ascending id
}

// ExplainedCandidate is one sequence's pruning outcome.
type ExplainedCandidate struct {
	ID       uint32  `json:"id"`       // database id of the candidate
	Label    string  `json:"label"`    // its label
	MinDmbr  float64 `json:"minDmbr"`  // its best phase-2 MBR distance
	MinDnorm float64 `json:"minDnorm"` // its best phase-3 Dnorm value
	Phase    string  `json:"phase"`    // where it was pruned, or "matched"
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":    "ok",
		"shards":    s.db.Shards(),
		"sequences": s.db.Len(),
		"mbrs":      s.db.NumMBRs(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sequences":   s.db.Len(),
		"mbrs":        s.db.NumMBRs(),
		"shards":      s.db.Shards(),
		"indexHeight": s.db.IndexHeight(),
		"indexFanout": s.db.IndexFanout(),
	})
}

// txnStatser is the transaction layer's stats surface (*txn.DB). The
// server detects it dynamically, so a database without that layer (a
// bare *core.Database) answers /txnz with 404.
type txnStatser interface {
	Stats() txn.Stats
}

// handleTxnz serves the transaction layer's commit/WAL/snapshot counters:
// one Stats object on a single transactional node, one per shard on a
// sharded deployment built over transactional nodes (shard.NewWithNodes).
func (s *Server) handleTxnz(w http.ResponseWriter, r *http.Request) {
	if ts, ok := s.db.(txnStatser); ok {
		writeJSON(w, http.StatusOK, ts.Stats())
		return
	}
	if sdb, ok := s.db.(*shard.ShardedDB); ok {
		type shardTxnStats struct {
			Shard int `json:"shard"`
			txn.Stats
		}
		var out []shardTxnStats
		for i := 0; i < sdb.Shards(); i++ {
			if ts, ok := sdb.Shard(i).(txnStatser); ok {
				out = append(out, shardTxnStats{Shard: i, Stats: ts.Stats()})
			}
		}
		if len(out) > 0 {
			writeJSON(w, http.StatusOK, out)
			return
		}
	}
	httpError(w, http.StatusNotFound, errors.New("transaction layer not enabled: the database is not a txn.DB"))
}

// ctxWriter is the optional context-carrying write surface (*txn.DB):
// when the database supports it, write handlers pass the request context
// down so the transaction layer's commit spans (op count, WAL group
// size) land in the request's trace. Databases without it lose only the
// span, never the write.
type ctxWriter interface {
	AddCtx(context.Context, *core.Sequence) (uint32, error)
	AddAllCtx(context.Context, []*core.Sequence) ([]uint32, error)
	AppendPointsCtx(context.Context, uint32, []geom.Point) error
	RemoveCtx(context.Context, uint32) error
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req body
	if !readRequest(w, r, sequenceFields, &req) {
		return
	}
	seq, err := core.NewSequence(req.Label, req.Points)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var id uint32
	if cw, ok := s.db.(ctxWriter); ok {
		id, err = cw.AddCtx(r.Context(), seq)
	} else {
		id, err = s.db.Add(seq)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]uint32{"id": id})
}

func (s *Server) handleAddBatch(w http.ResponseWriter, r *http.Request) {
	var req body
	if !readRequest(w, r, addBatchFields, &req) {
		return
	}
	seqs := make([]*core.Sequence, len(req.Sequences))
	for i := range req.Sequences {
		seq, err := core.NewSequence(req.Sequences[i].Label, req.Sequences[i].Points)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("sequence %d: %w", i, err))
			return
		}
		seqs[i] = seq
	}
	var ids []uint32
	var err error
	if cw, ok := s.db.(ctxWriter); ok {
		ids, err = cw.AddAllCtx(r.Context(), seqs)
	} else {
		ids, err = s.db.AddAll(seqs)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string][]uint32{"ids": ids})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	g := s.db.Segmented(id)
	if g == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("sequence %d not found", id))
		return
	}
	out := SequenceJSON{ID: id, Label: g.Seq.Label, Points: make([][]float64, g.Seq.Len())}
	for i := range out.Points {
		out.Points[i] = g.Seq.At(i)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var err error
	if cw, ok := s.db.(ctxWriter); ok {
		err = cw.RemoveCtx(r.Context(), id)
	} else {
		err = s.db.Remove(id)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrUnknownSequence) {
			status = http.StatusNotFound
		}
		httpError(w, status, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var req body
	if !readRequest(w, r, appendFields, &req) {
		return
	}
	var err error
	if cw, ok := s.db.(ctxWriter); ok {
		err = cw.AppendPointsCtx(r.Context(), id, req.Points)
	} else {
		err = s.db.AppendPoints(id, req.Points)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrUnknownSequence) {
			status = http.StatusNotFound
		}
		httpError(w, status, err)
		return
	}
	// A DELETE may commit between the append and this read.
	g := s.db.Segmented(id)
	if g == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("sequence %d not found", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"length": g.Seq.Len()})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req body
	if !readRequest(w, r, searchFields, &req) {
		return
	}
	q, err := s.query(&req, core.Range)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t0 := time.Now()
	res, err := s.db.Do(r.Context(), q)
	took := time.Since(t0)
	if err != nil {
		httpError(w, queryErrStatus(err), err)
		return
	}

	// The phase spans were recorded by the search itself (core threads
	// them through the trace in the request context); the handler adds
	// the wide-event attributes and, past the threshold, dumps the whole
	// run to the slow-query log.
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.SetAttrs(
			obs.Float("eps", q.Eps),
			obs.Int("query_points", q.Seq.Len()),
			obs.Int("candidates", res.Stats.CandidatesDmbr),
			obs.Int("matches", len(res.Matches)),
			obs.Bool("cached", res.Stats.CacheHit),
		)
		if q.Metric != nil {
			tr.SetAttrs(obs.Str("metric", q.Metric.Name()))
		}
	}
	s.logSlowQuery(r, "search", took, q, res)

	w.Header().Set("X-Mdseq-Cache", cacheHeader(res.Stats.CacheHit))
	sendAnswer(w, func(b []byte) ([]byte, error) { return appendSearchResponse(b, res, q.Metric != nil) })
}

// cacheHeader renders the X-Mdseq-Cache value for one answer.
func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handleBatch answers POST /batch: several range queries in one request,
// evaluated by the database's SearchBatchCtx — each distinct query answered
// as POST /search would answer it, a repeat served from the first and
// flagged cached, and on a sharded deployment one scatter per distinct
// query. Results come back in input order, each with the same shape as a
// POST /search response. The X-Mdseq-Cache header summarizes the batch:
// "hit" (all cached), "miss" (none), or "mixed".
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req body
	if !readRequest(w, r, batchFields, &req) {
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("batch has no queries"))
		return
	}
	qs := make([]*core.Sequence, len(req.Queries))
	for i, pts := range req.Queries {
		q, err := core.NewSequence("query", pts)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		qs[i] = q
	}
	t0 := time.Now()
	outs, stats, err := s.db.SearchBatchCtx(r.Context(), qs, req.Eps)
	took := time.Since(t0)
	if err != nil {
		httpError(w, queryErrStatus(err), err)
		return
	}

	// The batch span (queries, dedup, cache hits) is recorded by the
	// database; the handler adds the wide-event attributes.
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.SetAttrs(obs.Float("eps", req.Eps), obs.Int("batch_queries", len(qs)))
	}

	// A slow batch is logged as one unit under its first query — the
	// per-member stats are in the response for finer attribution.
	s.logSlowQuery(r, "batch", took, core.Query{Seq: qs[0], Eps: req.Eps}, core.Result{Stats: stats[0]})

	hits := 0
	for i := range outs {
		if stats[i].CacheHit {
			hits++
		}
	}
	switch hits {
	case 0:
		w.Header().Set("X-Mdseq-Cache", "miss")
	case len(outs):
		w.Header().Set("X-Mdseq-Cache", "hit")
	default:
		w.Header().Set("X-Mdseq-Cache", "mixed")
	}
	sendAnswer(w, func(b []byte) ([]byte, error) {
		b = append(b, `{"results":[`...)
		for i := range outs {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendSearchResponse(b, core.Result{Matches: outs[i], Stats: stats[i]}, false); err != nil {
				return b, err
			}
		}
		return append(b, "]}"...), nil
	})
}

// logSlowQuery emits one warn-level structured record for a query whose
// wall-clock exceeded the threshold: request ID, route, query shape,
// full SearchStats, and — on a sharded database — the complete per-shard
// breakdown, so a stuck shard or a collapsed pruning ratio is visible
// from the log alone.
func (s *Server) logSlowQuery(r *http.Request, route string, took time.Duration, q core.Query, res core.Result) {
	if s.logger == nil || s.slowThresh <= 0 || took < s.slowThresh {
		return
	}
	tr := obs.FromContext(r.Context())
	st := res.Stats
	attrs := []slog.Attr{
		slog.String("route", route),
		slog.Duration("took", took),
		slog.Int("queryPoints", q.Seq.Len()),
		slog.Group("stats",
			slog.Int("queryMBRs", st.QueryMBRs),
			slog.Int("totalSequences", st.TotalSequences),
			slog.Int("candidatesDmbr", st.CandidatesDmbr),
			slog.Int("matchesDnorm", st.MatchesDnorm),
			slog.Int("indexEntriesHit", st.IndexEntriesHit),
			slog.Int("dnormEvals", st.DnormEvals),
			slog.Int("quantPruned", st.QuantPruned),
			slog.Duration("phase1", st.Phase1),
			slog.Duration("phase2", st.Phase2),
			slog.Duration("phase3", st.Phase3),
			slog.Duration("cpuTime", st.CPUTime),
		),
	}
	if tr != nil {
		// Exemplar-style annotation: the request ID plus the `le` bucket
		// of the latency histograms this query landed in, so a spike in a
		// dashboard bucket links straight to a retained trace
		// (/debug/tracez) by ID.
		attrs = append([]slog.Attr{
			slog.String("requestID", tr.ID),
			slog.String("le", obs.LatencyBucketLabel(took)),
		}, attrs...)
	}
	if q.Kind == core.KNN {
		attrs = append(attrs, slog.Int("k", q.K))
	} else {
		attrs = append(attrs, slog.Float64("eps", q.Eps))
	}
	for _, ps := range res.PerShard {
		attrs = append(attrs, slog.Group("shard."+strconv.Itoa(ps.Shard),
			slog.Int("totalSequences", ps.Stats.TotalSequences),
			slog.Int("candidatesDmbr", ps.Stats.CandidatesDmbr),
			slog.Int("matchesDnorm", ps.Stats.MatchesDnorm),
			slog.Int("indexEntriesHit", ps.Stats.IndexEntriesHit),
			slog.Int("dnormEvals", ps.Stats.DnormEvals),
			slog.Int("quantPruned", ps.Stats.QuantPruned),
			slog.Duration("phase1", ps.Stats.Phase1),
			slog.Duration("phase2", ps.Stats.Phase2),
			slog.Duration("phase3", ps.Stats.Phase3),
		))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query", attrs...)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req body
	if !readRequest(w, r, knnFields, &req) {
		return
	}
	q, err := s.query(&req, core.KNN)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t0 := time.Now()
	res, err := s.db.Do(r.Context(), q)
	took := time.Since(t0)
	if err != nil {
		httpError(w, queryErrStatus(err), err)
		return
	}
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.SetAttrs(obs.Int("k", q.K), obs.Int("query_points", q.Seq.Len()))
	}
	s.logSlowQuery(r, "knn", took, q, res)
	sendAnswer(w, func(b []byte) ([]byte, error) { return appendNeighbors(b, res.Matches) })
}

// handleExplain answers POST /explain: the decision record of the paper's
// range search for the body's query. Explain covers that pipeline only, so
// a body that names another metric is refused, not answered with the
// account of a search other than the one asked about.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req body
	if !readRequest(w, r, searchFields, &req) {
		return
	}
	q, err := core.NewSequence("query", req.Points)
	if err == nil && req.Metric != "" {
		var m core.Metric
		if m, err = core.ParseMetric(req.Metric, -1); err == nil && m != (core.MetricD{}) {
			err = fmt.Errorf("explain covers metric d only, not %q", req.Metric)
		}
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ex, err := s.db.Explain(q, req.Eps)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var resp ExplainResponse
	resp.PrunedDmbr, resp.PrunedDnorm, resp.Matched = ex.Counts()
	for _, c := range ex.Candidates {
		resp.Sequences = append(resp.Sequences, ExplainedCandidate{
			ID: c.SeqID, Label: c.Label, MinDmbr: c.MinDmbr, MinDnorm: c.MinDnorm, Phase: c.Phase,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- helpers ------------------------------------------------------------

func pathID(w http.ResponseWriter, r *http.Request) (uint32, bool) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad sequence id %q", raw))
		return 0, false
	}
	return uint32(id), true
}

// readRequest reads the whole request body (capped by ServeHTTP's
// MaxBytesReader) into a pooled buffer and decodes it into dst, allowing
// the given fields. On failure it has sent the 413 or 400 reply and
// returns false.
func readRequest(w http.ResponseWriter, r *http.Request, allowed field, dst *body) bool {
	buf := getBuf()
	defer putBuf(buf)
	b, err := readBody(r.Body, (*buf)[:0])
	*buf = b
	if err == nil {
		err = decodeRequest(b, allowed, dst)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// sendAnswer builds a search answer with appendTo in a pooled buffer and
// sends it as 200. The body is complete before the status line goes out,
// so an answer JSON cannot carry (errNonFinite) becomes a 400, not a 200
// with nothing behind it.
func sendAnswer(w http.ResponseWriter, appendTo func([]byte) ([]byte, error)) {
	buf := getBuf()
	defer putBuf(buf)
	b, err := appendTo((*buf)[:0])
	if err == nil {
		b = append(b, '\n') // as Encoder.Encode ends its output
	}
	*buf = b
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeBody(w, http.StatusOK, b)
}

// writeBody sends one complete JSON body under a Content-Length.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

// writeJSON sends v through encoding/json — the replies of the endpoints
// off the search path. A value json cannot encode (a non-finite float: an
// /explain of a query whose distances overflow) is a 400.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("the answer cannot be written as JSON: %w", err))
		return
	}
	writeBody(w, status, append(b, '\n'))
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// queryErrStatus maps a failed query to its HTTP status: a blown
// deadline is the gateway-timeout story (504), a canceled request
// context means the client is gone (499 in nginx's vocabulary; the
// closest standard code is 503), and anything else is the caller's
// fault (400).
func queryErrStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
