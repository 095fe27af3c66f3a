package main

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox's two virtual cores do not run at a constant speed. A fixed
// arithmetic loop takes 13, 17, 21 or 26 µs per pass — discrete clock
// steps — and which step it runs at changes from second to second, with a
// mix that drifts over minutes: with nothing else running in the guest, the
// same loop is 25% slower twenty minutes later, and every timing of the
// server moves with it. A parent-versus-change comparison that alternates
// runs shares that drift; ten runs of one commit spread over twenty minutes
// do not agree with each other within any useful bound.
//
// So a run samples a fixed reference kernel every 10 ms while each phase is
// measured, and reports the phase's timings at the reference machine's
// speed: time × speed, rate ÷ speed, where speed = referenceNS ÷ the mean
// sample. The samples are thread CPU time, so a sample that was preempted
// is not longer for it, and at 1.3% of one core the sampler does not load
// what it measures. The kernel uses the standard library only and nothing of
// this repository: if it shared code with mdsserve, a faster mdsserve would
// speed the kernel up too and cancel its own gain.

// referenceNS is one kernel pass's CPU time in a calm spell on the sandbox
// this benchmark was written on. It only fixes the unit: any constant gives
// the same comparisons between commits.
const referenceNS = 90_000

// samplePeriod is the time between two samples.
const samplePeriod = 10 * time.Millisecond

// kernelState is the kernel's working set, allocated once.
type kernelState struct {
	vec  []float64 // 32 KB: stays in cache, so a pass senses the clock and not what the server evicted
	buf  []byte
	sink float64
}

func newKernelState() *kernelState {
	ks := &kernelState{vec: make([]float64, 4096)}
	for i := range ks.vec {
		ks.vec[i] = float64(i%97) * 0.0103
	}
	return ks
}

// once is one pass of the kernel: float arithmetic with square roots, like
// the distance kernels, and float formatting into a reused buffer, like the
// JSON encoder.
func (ks *kernelState) once() {
	var s float64
	v := ks.vec
	for r := 0; r < 12; r++ {
		for i := 0; i+2 < len(v); i += 3 {
			dx, dy, dz := v[i]-v[i+1], v[i+1]-v[i+2], v[i+2]-v[i]
			s += math.Sqrt(dx*dx + dy*dy + dz*dz)
		}
	}
	b := ks.buf[:0]
	for i := 0; i < 600; i++ {
		b = strconv.AppendFloat(b, v[i]+s*1e-9, 'g', -1, 64)
		b = append(b, ',')
	}
	ks.buf = b
	ks.sink += s + float64(len(b))
}

// threadCPU is the calling thread's consumed CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedSample is one timed kernel pass.
type speedSample struct {
	at  time.Time
	cpu time.Duration
}

// speedMeter samples the kernel in the background from start to stop.
type speedMeter struct {
	ks   *kernelState
	quit chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []speedSample
}

func startSpeedMeter() *speedMeter {
	m := &speedMeter{ks: newKernelState(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		// The CPU clock read is per thread, so the goroutine must stay on one.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for {
			at := time.Now()
			t0 := threadCPU()
			m.ks.once()
			d := threadCPU() - t0
			m.mu.Lock()
			m.samples = append(m.samples, speedSample{at: at, cpu: d})
			m.mu.Unlock()
			select {
			case <-m.quit:
				return
			default:
			}
			sleepUntil(at.Add(samplePeriod))
		}
	}()
	return m
}

// between returns the machine's speed relative to the reference over the
// samples taken in [from, to): 1 is the reference, 0.8 a fifth slower.
func (m *speedMeter) between(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range m.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			sum += s.cpu
			n++
		}
	}
	if n == 0 {
		return 1 // an interval shorter than the sampling period
	}
	return referenceNS * float64(n) / float64(sum.Nanoseconds())
}

func (m *speedMeter) stop() {
	close(m.quit)
	<-m.done
}
