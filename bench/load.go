package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of load connections: one per core of the 2-core
// sandbox, so the generator cannot oversubscribe the machine it shares with
// the server.
const clients = 2

// sampleEvery keeps every 16th read response for the answer oracle.
const sampleEvery = 16

// windows is how many equal windows a phase's timings are computed in; the
// reported figure is the median window, so one stalled window (a GC cycle,
// a checkpoint, a noisy neighbour) does not decide the run.
const windows = 5

// opRecord is one completed (or failed) operation of a phase.
type opRecord struct {
	at   time.Duration // offset of the op from phase start: completion (closed) or due time (open)
	lat  time.Duration // closed: send→response; open: due→response
	lag  time.Duration // open loop: how late the generator itself sent it
	kind reqKind
	ok   bool
}

// sample is a retained read response, checked against the oracle after the
// phase so the check's CPU does not compete with the server.
type sample struct {
	idx  int // stream index of the request
	body []byte
}

// phaseResult is everything one load phase observed.
type phaseResult struct {
	start   time.Time
	dur     time.Duration
	ops     []opRecord
	samples []sample
	unsent  int // open loop: requests still unsent when the phase ended
}

// ackedAdd is a sequence this run added and the server acknowledged.
type ackedAdd struct {
	id     uint32
	label  string
	length int // points the server must hold: the add plus every acked append
}

// driver sends a workload's stream to one server.
type driver struct {
	in     *inputs
	base   string
	client *http.Client

	maxSamples int // retained responses per phase

	mu     sync.Mutex
	acked  []ackedAdd
	nextID atomic.Int64 // label counter for adds
	// userBytes counts 8·dim·points of acknowledged writes.
	userBytes atomic.Int64
}

func newDriver(in *inputs, base string, maxSamples int) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &driver{
		in:         in,
		base:       base,
		client:     &http.Client{Transport: tr, Timeout: clientTimeout},
		maxSamples: maxSamples,
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// do sends stream[idx] and reports whether the server answered 2xx. buf
// receives the response body.
func (d *driver) do(idx int, buf *bytes.Buffer) (reqKind, bool) {
	r := &d.in.stream[idx]
	kind, path, body := r.kind, r.path, r.body
	var target int // index into d.acked, for appends
	switch r.kind {
	case kindAppend:
		d.mu.Lock()
		n := len(d.acked)
		if n > 0 {
			target = r.pick % n
			path = fmt.Sprintf("/sequences/%d/append", d.acked[target].id)
		}
		d.mu.Unlock()
		if n == 0 {
			// Nothing of ours to extend yet: store the points as a new
			// sequence so the slot is still a write.
			kind = kindAdd
		} else {
			body = appendBody(r.points)
		}
	}
	var label string
	if kind == kindAdd {
		label = fmt.Sprintf("%s%d-%d", writeLabelPrefix, d.in.seed, d.nextID.Add(1))
		path, body = "/sequences", addBody(label, r.points)
	}

	buf.Reset()
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return kind, false
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		return kind, false
	}

	switch kind {
	case kindAdd:
		var ack struct {
			ID uint32 `json:"id"`
		}
		if json.Unmarshal(buf.Bytes(), &ack) != nil {
			return kind, false
		}
		d.mu.Lock()
		d.acked = append(d.acked, ackedAdd{id: ack.ID, label: label, length: r.seq.Len()})
		d.mu.Unlock()
		d.userBytes.Add(int64(8 * r.seq.Dim() * r.seq.Len()))
	case kindAppend:
		d.mu.Lock()
		d.acked[target].length += r.seq.Len()
		d.mu.Unlock()
		d.userBytes.Add(int64(8 * r.seq.Dim() * r.seq.Len()))
	}
	return kind, true
}

// worker state shared by both loops.
type loopState struct {
	d       *driver
	start   time.Time
	next    atomic.Int64
	sampled atomic.Int64
	mu      sync.Mutex
	res     phaseResult
}

// keep retains every sampleEvery-th read response, up to maxSamples.
func (ls *loopState) keep(n int64, idx int, kind reqKind, body []byte) {
	if kind.isWrite() || n%sampleEvery != 0 {
		return
	}
	if ls.sampled.Add(1) > int64(ls.d.maxSamples) {
		return
	}
	ls.mu.Lock()
	ls.res.samples = append(ls.res.samples, sample{idx: idx, body: slices.Clone(body)})
	ls.mu.Unlock()
}

func (ls *loopState) merge(ops []opRecord, unsent int) {
	ls.mu.Lock()
	ls.res.ops = append(ls.res.ops, ops...)
	ls.res.unsent += unsent
	ls.mu.Unlock()
}

// closedLoop runs `clients` callers for dur: each sends its next request
// when the previous one completes, so a slow server receives less load and
// the latency is service time.
func (d *driver) closedLoop(dur time.Duration, from int) *phaseResult {
	ls := &loopState{d: d, start: time.Now()}
	deadline := ls.start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var ops []opRecord
			for time.Now().Before(deadline) {
				n := ls.next.Add(1) - 1
				idx := (from + int(n)) % len(d.in.stream)
				t0 := time.Now()
				kind, ok := d.do(idx, &buf)
				t1 := time.Now()
				ops = append(ops, opRecord{at: t1.Sub(ls.start), lat: t1.Sub(t0), kind: kind, ok: ok})
				if ok {
					ls.keep(n, idx, kind, buf.Bytes())
				}
			}
			ls.merge(ops, 0)
		}()
	}
	wg.Wait()
	ls.res.start, ls.res.dur = ls.start, time.Since(ls.start)
	return &ls.res
}

// clientTimeout is how long the generator waits for one answer, and how
// late it will still send a request.
const clientTimeout = 5 * time.Second

// openLoop offers rate requests per second for dur on a fixed schedule,
// whatever the server does. Latency runs from each request's due time, so
// a stalled server cannot hide the queue it caused. The schedule is served
// by `clients` connections: a request due while both are busy waits, and
// that wait is in its latency. One that has waited clientTimeout when its
// turn comes is not sent and is a failure: its caller would have given up.
func (d *driver) openLoop(dur time.Duration, rate float64, from int) *phaseResult {
	total := int64(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	ls := &loopState{d: d, start: time.Now()}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var ops []opRecord
			unsent := 0
			for {
				n := ls.next.Add(1) - 1
				if n >= total {
					break
				}
				due := ls.start.Add(time.Duration(n) * interval)
				free := time.Now()
				if free.Before(due) {
					sleepUntil(due)
				}
				sent := time.Now()
				if sent.Sub(due) > clientTimeout {
					unsent++
					continue
				}
				ready := due
				if free.After(due) {
					ready = free
				}
				idx := (from + int(n)) % len(d.in.stream)
				kind, ok := d.do(idx, &buf)
				t1 := time.Now()
				ops = append(ops, opRecord{at: due.Sub(ls.start), lat: t1.Sub(due), lag: sent.Sub(ready), kind: kind, ok: ok})
				if ok {
					ls.keep(n, idx, kind, buf.Bytes())
				}
			}
			ls.merge(ops, unsent)
		}()
	}
	wg.Wait()
	ls.res.start, ls.res.dur = ls.start, max(time.Since(ls.start), dur)
	return &ls.res
}

// sleepUntil blocks until t with the kernel's high-resolution timer. Go's
// time.Sleep parks on the netpoller, whose timeout is whole milliseconds:
// an otherwise idle generator would send every request 0.5–1 ms late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// windowed is one figure computed per window.
type windowed struct {
	median, lo, hi float64
	n              int // samples over the whole phase
}

func (w windowed) spread() float64 {
	if w.median == 0 {
		return 0
	}
	return (w.hi - w.lo) / w.median
}

func (w windowed) String() string {
	return fmt.Sprintf("%.4g (windows %.4g–%.4g, n=%d)", w.median, w.lo, w.hi, w.n)
}

// windowStat splits the phase into equal windows by each op's `at`, applies
// f to the successful latencies of every window that has any, brings each
// window's figure to the reference machine's speed with scale (nil leaves
// it as measured), and returns the median window with the min–max spread.
func windowStat(res *phaseResult, m *speedMeter, keep func(opRecord) bool,
	f func(sorted []time.Duration, window time.Duration) float64, scale func(v, speed float64) float64) windowed {
	win := res.dur / windows
	buckets := make([][]time.Duration, windows)
	n := 0
	for _, op := range res.ops {
		if !op.ok || !keep(op) {
			continue
		}
		w := min(int(op.at/win), windows-1)
		buckets[w] = append(buckets[w], op.lat)
		n++
	}
	var vals []float64
	for w, b := range buckets {
		if len(b) == 0 {
			continue
		}
		slices.Sort(b)
		v := f(b, win)
		if scale != nil {
			from := res.start.Add(time.Duration(w) * win)
			v = scale(v, m.between(from, from.Add(win)))
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return windowed{}
	}
	sort.Float64s(vals)
	return windowed{median: vals[len(vals)/2], lo: vals[0], hi: vals[len(vals)-1], n: n}
}

// A time at the reference speed is the measured time × speed; a rate is the
// measured rate ÷ speed.
func scaleTime(v, speed float64) float64 { return v * speed }
func scaleRate(v, speed float64) float64 { return v / speed }

func anyOp(opRecord) bool     { return true }
func writeOp(o opRecord) bool { return o.kind.isWrite() }

func pctl(p float64) func([]time.Duration, time.Duration) float64 {
	return func(s []time.Duration, _ time.Duration) float64 { return percentile(s, p) }
}

// perSecond is a window's completion rate.
func perSecond(s []time.Duration, window time.Duration) float64 {
	return float64(len(s)) / window.Seconds()
}

// failures counts the ops of a phase that did not get a 2xx answer, plus
// those never sent.
func (res *phaseResult) failures() int {
	n := res.unsent
	for _, op := range res.ops {
		if !op.ok {
			n++
		}
	}
	return n
}

func (res *phaseResult) okCount() int { return len(res.ops) + res.unsent - res.failures() }
