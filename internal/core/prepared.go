package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/geom"
)

// Prepared is a query's query-side work, done once: the checked sequence
// (Query.Check), the flat copy of its points, and — as its kind and metric
// need — its MCOST segmentation under D or its Sakoe–Chiba envelopes under
// DTW, and the cache key and region. None of it depends on what a database
// stores, so the first layer whose Do sees a query prepares it (Prepare) and
// every layer and shard below reads the one prepared form: a scatter over
// four shards segments the query once, not four times.
//
// It travels inside the Query, unexported. Prepare checks the query; the
// rest is built by the first reader that needs it — the segmentation or
// envelopes by the first kernel, the key by the first cache — so a cache
// hit pays for neither, and a part is built once however many shards read
// it at the same time. Once built it is immutable: shards read it
// concurrently and never write to it. Its memory is pooled; the layer that
// prepared it owns it and releases it when its Do returns, and no shard
// call outlives that Do (DESIGN §10), so nothing reads it after.
type Prepared struct {
	// What it was prepared for (preparedForm, cacheKey); a layer of another
	// dim or config refuses it.
	seq    *Sequence
	kind   Kind
	metric Metric
	eps    float64
	k      int
	dim    int
	cfg    PartitionConfig

	// The query side, built once by the first kernel (queryOnce). The
	// segmentation, columnar: query MBR j's bounds occupy qlo[j*d:(j+1)*d]
	// / qhi[j*d:(j+1)*d], and qmbrs[j].Rect aliases those ranges — the
	// same dual view Segmented keeps for stored sequences. qflat is the
	// query's points, point after point; qstarts the MBR point-range
	// column; side the three as the alignment kernel reads them. env holds
	// the envelopes under DTW, where the segmentation is not built.
	queryOnce sync.Once
	qlo, qhi  []float64
	qmbrs     []MBRInfo
	qflat     []float64
	qstarts   []int32
	side      alignSide
	env       dtwEnv
	// phase1 is how long the segmentation (under D) or the envelopes
	// (under DTW) took to build: the Phase1 every search of the query
	// reports, whichever shard paid it.
	phase1 time.Duration

	// The cache key and region rectangle, computed by the first cache that
	// asks (SlotFor).
	keyOnce sync.Once
	key     cache.Key
	bounds  geom.Rect
}

// PreparedMismatchError is the refusal of a query prepared for a layer of
// another dimension or partitioning: its segmentation and cache key are cut
// by that layer's rule, not this one's.
type PreparedMismatchError struct {
	Dim, PreparedDim       int             // the refusing layer's and the prepared query's
	Config, PreparedConfig PartitionConfig // likewise
}

// Error names both sides' dimension and partitioning.
func (e *PreparedMismatchError) Error() string {
	return fmt.Sprintf("core: query prepared for dim %d partitioning %+v, this layer has dim %d partitioning %+v",
		e.PreparedDim, e.PreparedConfig, e.Dim, e.Config)
}

var (
	preparedPool   = sync.Pool{New: func() any { return new(Prepared) }}
	preparedBuilds atomic.Uint64
)

// PreparedBuilds reports how many query sides (segmentations or envelope
// sets) prepared queries have built since the process started: one per
// query that reached a kernel, however many layers and shards answered it.
func PreparedBuilds() uint64 { return preparedBuilds.Load() }

// Prepare returns q ready for a layer of dimension dim partitioning queries
// with cfg. A query that carries its prepared form already — a layer above
// prepared it — comes back as it is with a nil *Prepared: that layer owns
// it. One prepared for another dim or config is refused with a
// *PreparedMismatchError. Otherwise Prepare checks q (Query.Check) and
// returns it carrying a new prepared form, with the form itself: the caller
// owns it and releases it (Release) once its Do returns.
func Prepare(q Query, dim int, cfg PartitionConfig) (Query, *Prepared, error) {
	if p := q.preparedForm(); p != nil {
		if p.dim != dim || p.cfg != cfg {
			return q, nil, &PreparedMismatchError{Dim: dim, PreparedDim: p.dim, Config: cfg, PreparedConfig: p.cfg}
		}
		return q, nil, q.checkEps()
	}
	if err := q.Check(dim); err != nil {
		return q, nil, err
	}
	q.prep = newPrepared(q, dim, cfg)
	return q, q.prep, nil
}

// preparedForm returns q's prepared form if it was prepared for q's sequence,
// kind and metric, and nil otherwise: a query changed after Prepare is not
// the one prepared.
func (q Query) preparedForm() *Prepared {
	if p := q.prep; p != nil && p.seq == q.Seq && p.kind == q.Kind && p.metric == q.Metric {
		return p
	}
	return nil
}

// newPrepared returns a pooled prepared form for q, which has passed
// Query.Check for dim.
func newPrepared(q Query, dim int, cfg PartitionConfig) *Prepared {
	p := preparedPool.Get().(*Prepared)
	p.seq, p.kind, p.metric, p.eps, p.k, p.dim, p.cfg = q.Seq, q.Kind, q.Metric, q.Eps, q.K, dim, cfg
	return p
}

// prepared returns q's prepared form with its query side built. q must have
// been through Prepare.
func (q Query) prepared() *Prepared { return q.prep.built() }

// built returns p with its query side built.
func (p *Prepared) built() *Prepared {
	p.queryOnce.Do(p.buildQuery)
	return p
}

// buildQuery builds the query side: the flat points, and the envelopes
// under DTW or the segmentation otherwise (the oracle, Scan, reads the
// points only).
func (p *Prepared) buildQuery() {
	preparedBuilds.Add(1)
	p.qflat = p.seq.appendFlat(p.qflat[:0])
	p.phase1 = 0
	if p.kind == Scan {
		return
	}
	t0 := time.Now()
	if mt, ok := p.metric.(MetricDTW); ok {
		p.env.buildEnvelopes(p.qflat, p.seq.Len(), p.dim, mt.Window)
	} else {
		p.segmentQuery(p.seq, p.cfg)
		p.side = p.querySide(p.dim)
	}
	p.phase1 = time.Since(t0)
}

// Release returns p to the pool; nothing may read it after. Nil-safe, so a
// layer releases what Prepare returned whether it prepared anything or not.
func (p *Prepared) Release() {
	if p == nil {
		return
	}
	p.seq, p.metric, p.bounds = nil, nil, geom.Rect{}
	p.queryOnce, p.keyOnce = sync.Once{}, sync.Once{}
	preparedPool.Put(p)
}

// cacheKey returns q's cache key under cfg and its bounding rectangle, for
// SlotFor: from q's prepared form when it was prepared for this very query —
// computed there once, whichever cache asks first — and computed afresh
// otherwise (a layer that changed K, as the transaction layer's base pass
// does, asks a different question).
func (q Query) cacheKey(cfg PartitionConfig) (cache.Key, geom.Rect) {
	p := q.preparedForm()
	if p == nil || p.eps != q.Eps || p.k != q.K || p.cfg != cfg {
		return CacheKey(q, cfg), q.Seq.Bounds()
	}
	p.keyOnce.Do(func() { p.key, p.bounds = CacheKey(q, cfg), q.Seq.Bounds() })
	return p.key, p.bounds
}

// segmentQuery is PARTITIONING_SEQUENCE (Section 3.4.3), the one
// implementation of the greedy MCOST rule: Partition runs it too, in a
// pooled Prepared, so a query and a stored sequence are cut by the same
// loop. A point joins the current MBR unless doing so would increase the
// per-point cost or overflow the cap, in which case it starts a new MBR;
// consecutive MBRs cover contiguous, non-overlapping index ranges whose
// union is the whole sequence. The candidate cost is evaluated with
// mcostGrown, and the current MBR grows in place only once a point is
// accepted. Bounds are written into qlo/qhi, pre-sized to the worst case
// of one MBR per point so the aliased qmbrs rects never dangle, and qmbrs
// is rebuilt. q must already be validated.
func (p *Prepared) segmentQuery(q *Sequence, cfg PartitionConfig) {
	d := q.Dim()
	n := q.Len()
	p.qlo = ensureFloats(p.qlo, n*d)
	p.qhi = ensureFloats(p.qhi, n*d)
	if cap(p.qmbrs) < n {
		p.qmbrs = make([]MBRInfo, 0, n)
	}
	p.qmbrs = p.qmbrs[:0]

	cur := MBRInfo{Start: 0, End: 1}
	slot := func(j int) geom.Rect {
		return geom.Rect{
			L: p.qlo[j*d : (j+1)*d : (j+1)*d],
			H: p.qhi[j*d : (j+1)*d : (j+1)*d],
		}
	}
	cur.Rect = slot(0)
	copy(cur.Rect.L, q.At(0))
	copy(cur.Rect.H, q.At(0))
	curCost := cfg.mcost(cur.Rect, 1)
	for i := 1; i < n; i++ {
		pt := q.At(i)
		grownCost := cfg.mcostGrown(cur.Rect, pt, cur.Count()+1)
		if grownCost > curCost || cur.Count() >= cfg.MaxPoints {
			p.qmbrs = append(p.qmbrs, cur)
			cur = MBRInfo{Rect: slot(len(p.qmbrs)), Start: i, End: i + 1}
			copy(cur.Rect.L, pt)
			copy(cur.Rect.H, pt)
			curCost = cfg.mcost(cur.Rect, 1)
			continue
		}
		cur.Rect.ExtendPoint(pt)
		cur.End = i + 1
		curCost = grownCost
	}
	p.qmbrs = append(p.qmbrs, cur)
}

// querySide returns the query as the alignment kernel reads it, after
// segmentQuery and the flat copy: the flat points, the columnar MBR bounds
// and the starts column, rebuilt here from qmbrs.
func (p *Prepared) querySide(d int) alignSide {
	r := len(p.qmbrs)
	if cap(p.qstarts) < r+1 {
		p.qstarts = make([]int32, r+1)
	}
	p.qstarts = p.qstarts[:r+1]
	for j := range p.qmbrs {
		p.qstarts[j+1] = int32(p.qmbrs[j].End)
	}
	return alignSide{flat: p.qflat, lo: p.qlo[:r*d], hi: p.qhi[:r*d], starts: p.qstarts}
}

// checkEps is Query.Check's threshold rule.
func (q Query) checkEps() error {
	if q.Kind != KNN && q.Eps < 0 {
		return fmt.Errorf("core: negative threshold %g", q.Eps)
	}
	return nil
}
