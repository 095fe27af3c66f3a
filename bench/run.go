package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/seqio"
	"repro/internal/store"
)

// coldStarts is how many times a run starts the server from nothing;
// setup_s is their median.
const coldStarts = 5

// env is where and how a run executes.
type env struct {
	root  string // checkout root
	bin   string // built mdsserve
	work  string // this run's scratch directory, removed at exit
	scale int    // corpus divisor: 1, or 16 under -smoke
	out   io.Writer
}

// phasePlan splits a run's measured seconds into its phases. The warm-up
// is not measured and comes on top.
type phasePlan struct {
	warm, closed, open time.Duration
}

// plan gives 60% of the measured time to the closed loop, which every
// bounded metric comes from, and 40% to the open loop, with a warm-up of a
// tenth.
func plan(seconds float64) phasePlan {
	s := time.Duration(seconds * float64(time.Second))
	return phasePlan{warm: max(s/10, 500*time.Millisecond), closed: s * 3 / 5, open: s * 2 / 5}
}

// prepared is a workload's on-disk inputs and the flags that serve them.
type prepared struct {
	args     []string
	dataDir  string  // store or durable directory, "" for -data workloads
	dataFile string  // corpus.mds, "" for the store workload
	buildS   float64 // store.Build time, store workload only
}

// prepare writes the generated corpus where mdsserve will read it. The
// program receives only generated inputs: a data file, a store directory,
// or a durable directory it ingested itself.
func prepare(e *env, in *inputs) (*prepared, error) {
	sp := in.spec
	p := &prepared{}
	if sp.store {
		p.dataDir = filepath.Join(e.work, "store")
		t0 := time.Now()
		if err := store.Build(p.dataDir, in.corpus, core.DefaultPartitionConfig()); err != nil {
			return nil, err
		}
		p.buildS = time.Since(t0).Seconds()
		p.args = []string{"-store", p.dataDir}
	} else {
		p.dataFile = filepath.Join(e.work, "corpus.mds")
		if err := seqio.WriteFile(p.dataFile, in.corpus); err != nil {
			return nil, err
		}
		p.args = []string{"-data", p.dataFile}
	}
	if sp.shards > 1 {
		p.args = append(p.args, "-shards", strconv.Itoa(sp.shards))
	}
	if sp.quantized {
		p.args = append(p.args, "-quantized-mbr")
	}
	if sp.cacheEntries > 0 {
		p.args = append(p.args, "-cache-entries", strconv.Itoa(sp.cacheEntries))
	}
	if sp.durable {
		p.dataDir = filepath.Join(e.work, "durable")
		if err := ingestDurable(e, p); err != nil {
			return nil, err
		}
		p.args = append(p.args, "-durable", p.dataDir, "-group-commit-window", "0",
			"-checkpoint-every", strconv.Itoa(checkpointEvery))
	}
	return p, nil
}

// ingestDurable has mdsserve load the corpus into an empty durable
// directory and fold it into the base. A fresh -durable -data start leaves
// the whole corpus in the unindexed delta until the first checkpoint, which
// is no steady state to measure; -checkpoint-every 1 folds it at once.
func ingestDurable(e *env, p *prepared) error {
	args := append([]string{"-durable", p.dataDir, "-checkpoint-every", "1"}, p.args...)
	srv, _, err := startServer(e.bin, filepath.Join(e.work, "ingest.log"), args...)
	if err != nil {
		return err
	}
	defer srv.stop()
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, ok := txnz(hc, srv.base); ok && st.Checkpoints >= 1 && st.DeltaAdds == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("durable ingest: corpus not checkpointed after 60 s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// served is what the load phases against the real server observed.
type served struct {
	in     *inputs
	setups []float64 // cold-start seconds, sorted
	closed *phaseResult
	open   *phaseResult
	before counters // scraped immediately before the closed loop
	after  counters // and immediately after it
	cpuS   float64  // server CPU seconds over the closed loop
	rssMB  float64
	diskB  int64
	liveB  int64 // 8·dim·points of live user data at the end
	// closedUserB is 8·dim·points of the writes the closed loop got acked.
	closedUserB int64
	deltaMax    int // largest delta_adds /txnz showed (traced runs poll it)
	verdict     verdict
	crash       *crashCheck
	meter       *speedMeter // machine speed while the phases ran (see calibrate.go)
	openRate    float64     // requests per second the open loop offered
}

// crashCheck is the outcome of the kill-and-restart check.
type crashCheck struct {
	acked, visible int
	recoveryS      float64
	replayed       uint64
}

// serve runs one workload against the real mdsserve: cold starts, warm-up,
// closed loop, open loop, teardown checks. pollTxnz turns on the 1/s /txnz
// poll traced runs use for txn.delta_adds_max.
func serve(e *env, in *inputs, prep *prepared, pl phasePlan, orc *oracle, pollTxnz bool) (*served, error) {
	sv := &served{in: in}
	logPath := filepath.Join(e.work, "server.log")

	sv.meter = startSpeedMeter()
	defer sv.meter.stop()
	var srv *serverProc
	for i := 0; i < coldStarts; i++ {
		if srv != nil {
			srv.stop()
		}
		var up time.Duration
		var err error
		if srv, up, err = startServer(e.bin, logPath, prep.args...); err != nil {
			return nil, err
		}
		sv.setups = append(sv.setups, up.Seconds())
	}
	sort.Float64s(sv.setups)
	alive := true
	defer func() {
		if alive {
			srv.stop()
		}
	}()

	// 256 answers per phase are plenty for the oracle and bound what the
	// client keeps on its heap (answers run to 100 KB).
	drv := newDriver(in, srv.base, 256)
	defer drv.close()

	stopPoll := func() int { return 0 }
	if pollTxnz && in.spec.durable {
		stopPoll = pollDeltaAdds(srv.base)
		defer stopPoll()
	}

	n := len(in.stream)
	drv.closedLoop(pl.warm, n/4) // warm-up, discarded
	var err error
	if sv.before, err = scrape(drv.client, srv.base); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ub0 := drv.userBytes.Load()
	sv.closed = drv.closedLoop(pl.closed, 0)
	sv.closedUserB = drv.userBytes.Load() - ub0
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	sv.cpuS = cpu1 - cpu0
	if sv.after, err = scrape(drv.client, srv.base); err != nil {
		return nil, err
	}
	// The rate is defined on the reference machine. Offering it at the
	// machine's speed over the closed loop keeps the open loop near half of
	// capacity when the host has slowed down, where the fixed rate would
	// turn into overload and unsent requests.
	sv.openRate = in.spec.rate / float64(rateDivisor(e.scale)) * sv.closedSpeed()
	sv.open = drv.openLoop(pl.open, sv.openRate, n/2)
	sv.deltaMax = stopPoll()

	if sv.rssMB, err = srv.rssPeakMB(); err != nil {
		return nil, err
	}
	sv.liveB = in.userBytes + drv.userBytes.Load()
	if prep.dataDir != "" {
		if sv.diskB, err = dirBytes(prep.dataDir); err != nil {
			return nil, err
		}
	}

	if in.spec.durable {
		alive = false
		srv.kill()
		if srv, sv.crash, err = crashRestart(e, prep, drv); err != nil {
			return nil, err
		}
		alive = true
	}

	samples := append(append([]sample{}, sv.closed.samples...), sv.open.samples...)
	sv.verdict = orc.verify(in.stream, samples, pl.closed/8)
	return sv, nil
}

// pollDeltaAdds reads /txnz once a second on a connection of its own until
// the returned function is first called; it reports the largest delta_adds
// seen.
func pollDeltaAdds(base string) (stop func() int) {
	quit, done := make(chan struct{}), make(chan int, 1)
	go func() {
		hc := &http.Client{Timeout: time.Second}
		defer hc.CloseIdleConnections()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		most := 0
		for {
			select {
			case <-quit:
				done <- most
				return
			case <-tick.C:
				if st, ok := txnz(hc, base); ok {
					most = max(most, st.DeltaAdds)
				}
			}
		}
	}()
	var once sync.Once
	var most int
	return func() int {
		once.Do(func() {
			close(quit)
			most = <-done
		})
		return most
	}
}

// rateDivisor slows the open loop under -smoke, where the corpus and the
// machine share are both a fraction of a full run's.
func rateDivisor(scale int) int {
	if scale > 1 {
		return 2
	}
	return 1
}

// crashRestart restarts mdsserve on the durable directory of a server that
// was just SIGKILLed and checks that every acknowledged write is visible
// with its full length. SIGKILL leaves the OS page cache intact: this is a
// process-crash check, not a power-loss check.
func crashRestart(e *env, prep *prepared, drv *driver) (*serverProc, *crashCheck, error) {
	srv, up, err := startServer(e.bin, filepath.Join(e.work, "restart.log"), prep.args...)
	if err != nil {
		return nil, nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	cc := &crashCheck{recoveryS: up.Seconds(), acked: len(drv.acked)}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	if st, ok := txnz(hc, srv.base); ok {
		cc.replayed = st.RecoveredRecords
	}
	for _, a := range drv.acked {
		resp, err := hc.Get(fmt.Sprintf("%s/sequences/%d", srv.base, a.id))
		if err != nil {
			continue
		}
		var got struct {
			Label  string      `json:"label"`
			Points [][]float64 `json:"points"`
		}
		err = decodeJSON(resp, &got)
		if err == nil && got.Label == a.label && len(got.Points) == a.length {
			cc.visible++
		}
	}
	return srv, cc, nil
}

// setupMedian is the median cold start.
func (sv *served) setupMedian() float64 { return sv.setups[len(sv.setups)/2] }

// attempted counts the operations of the measured phases.
func (sv *served) attempted() int {
	return len(sv.closed.ops) + len(sv.open.ops) + sv.open.unsent
}

// failed counts non-2xx answers, timeouts, unsent open-loop requests, wrong
// answers, and acknowledged writes a crash lost.
func (sv *served) failed() int {
	n := sv.closed.failures() + sv.open.failures() + sv.verdict.wrong
	if sv.crash != nil {
		n += sv.crash.acked - sv.crash.visible
	}
	return n
}
