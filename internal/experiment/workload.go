package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fractal"
	"repro/internal/geom"
	"repro/internal/video"
)

// Bench couples everything one experiment run needs: the populated
// database, the raw data, the query set, and exact ground truth.
type Bench struct {
	Config  Config
	DB      *core.Database
	Data    []*core.Sequence
	Queries []*core.Sequence
	// Truth[q][s] is the offset-distance profile of query q against
	// sequence s (threshold-independent; see core.OffsetProfile).
	Truth [][][]float64
}

// GenerateData produces the configured corpus (without a database).
func GenerateData(cfg Config) ([]*core.Sequence, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch cfg.Workload {
	case Synthetic:
		fc := fractal.DefaultConfig()
		fc.Dim = cfg.Dim
		return fractal.GenerateSet(rng, cfg.NumSequences, cfg.MinLen, cfg.MaxLen, fc)
	case Video:
		if cfg.Dim != 3 {
			return nil, fmt.Errorf("experiment: video workload is 3-dimensional, config says %d", cfg.Dim)
		}
		return video.GenerateSet(rng, cfg.NumSequences, cfg.MinLen, cfg.MaxLen, video.DefaultStreamConfig())
	default:
		return nil, fmt.Errorf("experiment: unknown workload %v", cfg.Workload)
	}
}

// MakeQueries draws the query set: each query is a random subsequence of a
// random stored sequence, clamped to the sequence's length.
func MakeQueries(cfg Config, data []*core.Sequence) []*core.Sequence {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	out := make([]*core.Sequence, cfg.QueriesPerThreshold)
	for i := range out {
		src := data[rng.Intn(len(data))]
		qlen := cfg.QueryMinLen + rng.Intn(cfg.QueryMaxLen-cfg.QueryMinLen+1)
		if qlen > src.Len() {
			qlen = src.Len()
		}
		start := rng.Intn(src.Len() - qlen + 1)
		pts := make([]geom.Point, qlen)
		for j := range pts {
			pts[j] = src.At(start + j).Clone()
		}
		out[i] = &core.Sequence{Label: fmt.Sprintf("query-%02d(src=%s@%d)", i, src.Label, start), Points: pts}
	}
	return out
}

// Build generates the corpus, indexes it, draws queries and computes the
// exact ground-truth profiles. It is the expensive setup step shared by
// every figure; the profiles make all thresholds cheap afterwards.
func Build(cfg Config) (*Bench, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	data, err := GenerateData(cfg)
	if err != nil {
		return nil, err
	}
	db, err := core.NewDatabase(core.Options{Dim: cfg.Dim, Partition: cfg.Partition})
	if err != nil {
		return nil, err
	}
	if _, err := db.AddAll(data); err != nil {
		db.Close()
		return nil, err
	}
	queries := MakeQueries(cfg, data)
	truth := ComputeTruth(queries, data)
	return &Bench{Config: cfg, DB: db, Data: data, Queries: queries, Truth: truth}, nil
}

// Close releases the bench's database.
func (b *Bench) Close() error { return b.DB.Close() }

// ComputeTruth evaluates every (query, sequence) offset profile, in
// parallel across sequences.
func ComputeTruth(queries, data []*core.Sequence) [][][]float64 {
	truth := make([][][]float64, len(queries))
	workers := runtime.GOMAXPROCS(0)
	for qi, q := range queries {
		profiles := make([][]float64, len(data))
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range jobs {
					profiles[si] = core.OffsetProfile(q.Slice(0, q.Len()), data[si].Slice(0, data[si].Len()))
				}
			}()
		}
		for si := range data {
			jobs <- si
		}
		close(jobs)
		wg.Wait()
		truth[qi] = profiles
	}
	return truth
}

// RelevantAt returns, for query qi, the set of sequence indices with
// D(Q,S) ≤ eps — the paper's "relevant sequences".
func (b *Bench) RelevantAt(qi int, eps float64) map[uint32]bool {
	out := make(map[uint32]bool)
	for si, profile := range b.Truth[qi] {
		if core.MinOfProfile(profile) <= eps {
			out[uint32(si)] = true
		}
	}
	return out
}

// ExactInterval returns query qi's exact solution interval in sequence si
// at threshold eps (Definition 6).
func (b *Bench) ExactInterval(qi, si int, eps float64) core.IntervalSet {
	q, s := b.Queries[qi], b.Data[si]
	queryLonger := q.Len() > s.Len()
	k := q.Len()
	if queryLonger {
		k = s.Len()
	}
	return core.SolutionIntervalFromProfile(b.Truth[qi][si], k, s.Len(), queryLonger, eps)
}
