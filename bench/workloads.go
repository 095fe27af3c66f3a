package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/server"
)

// defaultSeed is the seed a run without -seed uses; pinnedDigests below
// holds the input digests that seed must reproduce.
const defaultSeed = 20000301

// corpusSeed generates every run's corpus. The corpus is the benchmark's
// dataset, the same for every -seed, like the paper's Table 2 corpora: two
// random 1600-sequence corpora differ by 10–15% in candidates per query,
// which would make runs at different seeds measure different workloads.
// -seed draws the request stream: which queries, which ε, which writes, in
// which order.
const corpusSeed = 20000301

// pinnedDigests are the FNV-1a digests (corpus, request stream) of every
// workload at full scale, the stream's at defaultSeed. A run refuses to
// start when its corpus — or, at defaultSeed, its stream — hashes
// differently, so an edit to internal/fractal, internal/video or
// internal/experiment cannot silently change what the committed numbers
// were measured on. Streams at other seeds have nothing to compare against
// and only print their digests.
var pinnedDigests = map[string][2]string{
	"range-mem":      {"4914e367d64a6287", "fe271e615f71357e"},
	"knn-dtw-shard4": {"50ab0fa9c52032ef", "a78b0da0f6e80a5b"},
	"mixed-durable":  {"4914e367d64a6287", "54fe85e721ca17b5"},
	"range-store10x": {"02b4b81e60d20253", "d6e68f8722367f6d"},
}

// writeLabelPrefix marks sequences the write stream adds, so the oracle can
// restrict its check to the initial corpus.
const writeLabelPrefix = "w-"

// appendPoints is how many points one /append request carries.
const appendPoints = 16

// spec is one workload: its corpus, the server flags it runs under, and the
// fixed open-loop rate. Why each exists is in BENCHMARK.json and README.md.
type spec struct {
	name string
	// corpus and corpusN select the generator and Table 2 scale.
	corpus  experiment.Workload
	corpusN int
	// shards, durable, store, quantized, cacheEntries mirror the mdsserve
	// flags the workload runs under.
	shards       int
	durable      bool
	store        bool
	quantized    bool
	cacheEntries int
	// rate is the open-loop arrival rate in requests per second: the round
	// number nearest half of the closed-loop throughput measured at the
	// commit that added the harness. It is fixed so later commits are
	// compared at the same offered load.
	rate float64
	// poolN is the number of distinct requests generated.
	poolN int
}

// checkpointEvery is mixed-durable's -checkpoint-every. ISSUE 11 asked for
// 256 over a 55 s run; the driver's run is a third of that, so the fold
// interval shrinks with it to keep several checkpoint cycles inside a run.
const checkpointEvery = 96

var specs = []spec{
	{
		name:   "range-mem",
		corpus: experiment.Synthetic, corpusN: 1600, shards: 1,
		rate: 700, poolN: 4096,
	},
	{
		name:   "knn-dtw-shard4",
		corpus: experiment.Video, corpusN: 1408, shards: 4,
		rate: 110, poolN: 2048,
	},
	{
		name:   "mixed-durable",
		corpus: experiment.Synthetic, corpusN: 1600, shards: 1, durable: true, cacheEntries: 128,
		rate: 550, poolN: 8192,
	},
	{
		name:   "range-store10x",
		corpus: experiment.Synthetic, corpusN: 16000, shards: 1, store: true, quantized: true,
		rate: 280, poolN: 4096,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// reqKind is what one request of a stream does.
type reqKind uint8

const (
	kindSearch    reqKind = iota // POST /search, metric d
	kindKNN                      // POST /knn, metric d
	kindSearchDTW                // POST /search, metric dtw
	kindKNNDTW                   // POST /knn, metric dtw
	kindAdd                      // POST /sequences
	kindAppend                   // POST /sequences/{id}/append
)

func (k reqKind) isWrite() bool { return k == kindAdd || k == kindAppend }

func (k reqKind) String() string {
	return [...]string{"search", "knn", "search-dtw", "knn-dtw", "add", "append"}[k]
}

// dtwWindow is the Sakoe–Chiba half-width of every DTW request.
const dtwWindow = 16

// request is one generated operation. Reads carry their marshalled body and
// the parsed query for the oracle and the in-process replay. Writes carry
// only the points payload: the label (add) or target id (append) is bound
// when the request is sent, because ids are assigned by the server.
type request struct {
	kind reqKind
	path string
	body []byte
	q    *core.Sequence
	eps  float64
	k    int
	// points is the write payload, `[[x,y,z],...]` marshalled once.
	points []byte
	seq    *core.Sequence // the sequence an add stores (unlabelled)
	pick   int            // append: which acked add to extend, mod their count
}

func (r *request) metric() core.Metric {
	if r.kind == kindSearchDTW || r.kind == kindKNNDTW {
		return core.MetricDTW{Window: dtwWindow}
	}
	return core.MetricD{}
}

// inputs is everything a workload run needs, generated from one seed.
type inputs struct {
	spec         spec
	seed         int64
	corpus       []*core.Sequence
	stream       []request
	corpusDigest string
	streamDigest string
	userBytes    int64 // 8·dim·points of the corpus
	genSeconds   float64
}

// generate builds the workload's corpus and request stream from seed.
// scale divides the corpus size (1 = full, 16 = smoke).
func generate(sp spec, seed int64, scale int) (*inputs, error) {
	t0 := time.Now()
	cfg := experiment.PaperSynthetic()
	cfg.Workload = sp.corpus
	cfg.NumSequences = max(sp.corpusN/scale, 8)
	cfg.Seed = corpusSeed
	corpus, err := experiment.GenerateData(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: sp, seed: seed, corpus: corpus}
	for _, s := range corpus {
		in.userBytes += int64(8 * s.Dim() * s.Len())
	}
	in.corpusDigest = digestCorpus(corpus)

	rng := rand.New(rand.NewSource(seed + 1))
	poolN := max(sp.poolN/scale, 64)
	switch sp.name {
	case "range-mem":
		in.stream = rangeStream(rng, cfg, corpus, poolN, []float64{0.05, 0.10, 0.20})
	case "range-store10x":
		in.stream = rangeStream(rng, cfg, corpus, poolN, []float64{0.02, 0.05})
	case "knn-dtw-shard4":
		in.stream = knnDTWStream(rng, cfg, corpus, poolN)
	case "mixed-durable":
		in.stream = mixedStream(rng, seed, cfg, corpus, poolN)
	default:
		return nil, fmt.Errorf("no stream generator for workload %q", sp.name)
	}
	in.streamDigest = digestStream(in.stream)
	in.genSeconds = time.Since(t0).Seconds()
	return in, nil
}

// subsequence draws a query the way experiment.MakeQueries does: a random
// 28–96-point window of a random stored sequence.
func subsequence(rng *rand.Rand, cfg experiment.Config, corpus []*core.Sequence) *core.Sequence {
	src := corpus[rng.Intn(len(corpus))]
	qlen := cfg.QueryMinLen + rng.Intn(cfg.QueryMaxLen-cfg.QueryMinLen+1)
	qlen = min(qlen, src.Len())
	start := rng.Intn(src.Len() - qlen + 1)
	pts := make([]geom.Point, qlen)
	for j := range pts {
		pts[j] = src.Points[start+j].Clone()
	}
	return &core.Sequence{Label: "query", Points: pts}
}

// warped returns a whole stored sequence with up to 8 points dropped or
// duplicated and every coordinate jittered. DTW here is whole-sequence, so
// a short subsequence would be unalignable under the window and measure
// nothing.
func warped(rng *rand.Rand, corpus []*core.Sequence) *core.Sequence {
	src := corpus[rng.Intn(len(corpus))]
	pts := make([]geom.Point, 0, src.Len()+8)
	for _, p := range src.Points {
		pts = append(pts, p.Clone())
	}
	for e := rng.Intn(9); e > 0; e-- {
		i := rng.Intn(len(pts))
		if rng.Intn(2) == 0 && len(pts) > 2 {
			pts = append(pts[:i], pts[i+1:]...)
		} else {
			pts = append(pts[:i+1], pts[i:]...)
			pts[i+1] = pts[i].Clone()
		}
	}
	for _, p := range pts {
		for d := range p {
			p[d] = math.Min(1, math.Max(0, p[d]+rng.NormFloat64()*0.004))
		}
	}
	return &core.Sequence{Label: "query", Points: pts}
}

func rawPoints(s *core.Sequence) [][]float64 {
	out := make([][]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed-shape values of finite floats reach here
	}
	return b
}

func searchRequest(q *core.Sequence, eps float64, dtw bool) request {
	body := server.SearchRequest{Points: rawPoints(q), Eps: eps}
	kind := kindSearch
	if dtw {
		w := dtwWindow
		body.Metric, body.DTWWindow = "dtw", &w
		kind = kindSearchDTW
	}
	return request{kind: kind, path: "/search", body: mustJSON(body), q: q, eps: eps}
}

func knnRequest(q *core.Sequence, k int, dtw bool) request {
	body := server.KNNRequest{Points: rawPoints(q), K: k}
	kind := kindKNN
	if dtw {
		w := dtwWindow
		body.Metric, body.DTWWindow = "dtw", &w
		kind = kindKNNDTW
	}
	return request{kind: kind, path: "/knn", body: mustJSON(body), q: q, k: k}
}

// rangeStream is n distinct range queries with ε drawn uniformly from eps.
func rangeStream(rng *rand.Rand, cfg experiment.Config, corpus []*core.Sequence, n int, eps []float64) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = searchRequest(subsequence(rng, cfg, corpus), eps[rng.Intn(len(eps))], false)
	}
	return out
}

// knnDTWStream is 40% kNN under D, 30% DTW range, 30% DTW kNN.
func knnDTWStream(rng *rand.Rand, cfg experiment.Config, corpus []*core.Sequence, n int) []request {
	out := make([]request, n)
	for i := range out {
		switch r := rng.Intn(10); {
		case r < 4:
			out[i] = knnRequest(subsequence(rng, cfg, corpus), 10, false)
		case r < 7:
			out[i] = searchRequest(warped(rng, corpus), 0.05, true)
		default:
			out[i] = knnRequest(warped(rng, corpus), 10, true)
		}
	}
	return out
}

// mixedStream is 90% reads at ε=0.10 drawn Zipf(1.1) from a fixed pool of
// 256 queries and 10% writes, 7 adds of a new fractal sequence to 3 appends of
// 16 points to a sequence this run added.
func mixedStream(rng *rand.Rand, seed int64, cfg experiment.Config, corpus []*core.Sequence, n int) []request {
	const queryPool = 256
	// The pool and its popularity ranking belong to the dataset, not to the
	// seed: under Zipf(1.1) ten queries draw 60% of the reads, so a pool
	// redrawn per seed made cpu_ms_per_op differ by 25% between seeds on
	// whether the hot queries happened to be cheap ones.
	prng := rand.New(rand.NewSource(corpusSeed + 1))
	pool := make([]request, queryPool)
	for i := range pool {
		pool[i] = searchRequest(subsequence(prng, cfg, corpus), 0.10, false)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, queryPool-1)

	// New sequences come from the same generator under another seed, so
	// they look like the corpus without repeating it.
	wcfg := cfg
	wcfg.Seed = seed + 2
	wcfg.NumSequences = 128
	fresh, err := experiment.GenerateData(wcfg)
	if err != nil {
		panic(err) // same validated config as the corpus
	}

	out := make([]request, n)
	for i := range out {
		if rng.Intn(10) != 0 {
			out[i] = pool[zipf.Uint64()]
			continue
		}
		src := fresh[rng.Intn(len(fresh))]
		if rng.Intn(10) < 7 {
			s := &core.Sequence{Points: src.Points}
			out[i] = request{kind: kindAdd, path: "/sequences", seq: s, points: mustJSON(rawPoints(s))}
			continue
		}
		start := rng.Intn(src.Len() - appendPoints + 1)
		s := &core.Sequence{Points: src.Points[start : start+appendPoints]}
		out[i] = request{kind: kindAppend, seq: s, points: mustJSON(rawPoints(s)), pick: rng.Intn(1 << 20)}
	}
	return out
}

// addBody renders an add request's body under a label bound at send time.
func addBody(label string, points []byte) []byte {
	b := make([]byte, 0, len(points)+len(label)+24)
	b = append(b, `{"label":`...)
	b = strconv.AppendQuote(b, label)
	b = append(b, `,"points":`...)
	b = append(b, points...)
	return append(b, '}')
}

// appendBody renders an append request's body.
func appendBody(points []byte) []byte {
	b := make([]byte, 0, len(points)+12)
	b = append(b, `{"points":`...)
	b = append(b, points...)
	return append(b, '}')
}

func digestCorpus(corpus []*core.Sequence) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range corpus {
		h.Write([]byte(s.Label))
		for _, p := range s.Points {
			for _, v := range p {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestStream(stream []request) string {
	h := fnv.New64a()
	for i := range stream {
		r := &stream[i]
		h.Write([]byte{byte(r.kind)})
		h.Write(r.body)
		h.Write(r.points)
		h.Write([]byte(strconv.Itoa(r.pick)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkPinned enforces pinnedDigests for a full-scale run.
func (in *inputs) checkPinned(scale int) error {
	if scale != 1 {
		return nil
	}
	pin := pinnedDigests[in.spec.name]
	if pin[0] != in.corpusDigest || (in.seed == defaultSeed && pin[1] != in.streamDigest) {
		return fmt.Errorf("workload %s: inputs changed: corpus %s stream %s, pinned %s %s — a generator under internal/ was edited; re-pin in bench/workloads.go only in a change that claims no gain",
			in.spec.name, in.corpusDigest, in.streamDigest, pin[0], pin[1])
	}
	return nil
}
