package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the harness keeps everything it writes: the mdsserve
// binary, the Go build cache run.sh points at it, and per-run work
// directories. It is relative to the checkout root and git-ignored.
const buildDir = ".bench_build"

// repoRoot finds the checkout root: the nearest ancestor of the working
// directory holding go.mod and cmd/mdsserve. The harness is started either
// from the root (go run ./bench) or from anywhere below it (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mdsserve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout root (go.mod + cmd/mdsserve) above the working directory; the harness builds mdsserve from source and cannot run without it")
		}
		dir = parent
	}
}

// buildServer compiles the real mdsserve binary from the checkout's source.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "mdsserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mdsserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mdsserve: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running mdsserve.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	log     *os.File
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns mdsserve with args and waits for the first 200 on
// /healthz, polling every 2 ms. The returned duration — spawn to healthy —
// is one setup_s sample: it covers the program's own load, index build,
// mmap open and WAL recovery. The port is picked by asking the kernel for a
// free one and releasing it, so another process can take it first; a server
// that exits during start-up is retried on a new port.
func startServer(bin, logPath string, args ...string) (*serverProc, time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var p *serverProc
		var up time.Duration
		if p, up, err = startOnce(bin, logPath, args...); err == nil {
			return p, up, nil
		}
	}
	return nil, 0, err
}

func startOnce(bin, logPath string, args ...string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	// Should the harness itself be killed, the kernel takes the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()

	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := t0.Add(120 * time.Second)
	for {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		select {
		case <-p.exited:
			logf.Close()
			tail, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("mdsserve exited during start-up: %v\n%s", p.waitErr, lastBytes(tail, 2048))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, 0, errors.New("mdsserve not healthy after 120 s")
		}
	}
}

func lastBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// stop asks for a graceful shutdown (SIGTERM drains and closes the
// database) and waits for the process to end, killing it after 15 s.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

// kill is SIGKILL: the process gets no chance to flush anything. The OS page
// cache survives, so what this tests is a process crash, not a power loss.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
	p.log.Close()
}

// cpuSeconds reads the process's user+system CPU time from /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	const clockTicks = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return (ut + st) / clockTicks, nil
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func (p *serverProc) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
