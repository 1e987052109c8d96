package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one smartndrd process started with default flags; only the
// listen address is chosen, so concurrent checkouts never collide on a
// port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	ready   time.Duration // exec → "serving on" line
	exited  chan struct{}
	waitErr error

	mu     sync.Mutex
	stderr bytes.Buffer // everything after the ready line
}

// readyTimeout bounds how long the daemon may take to print its
// "serving on" line.
const readyTimeout = 30 * time.Second

// startDaemon execs the daemon and returns once it has printed
// "serving on <addr>" on stderr. The line is read as the daemon writes
// it; nothing polls.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = dieWithParent()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		// Reads stderr until the daemon closes it; Wait (below) only
		// returns after this goroutine's reads have hit EOF.
		r := bufio.NewReader(pipe)
		found := false
		for {
			line, err := r.ReadString('\n')
			if !found {
				if _, rest, ok := strings.Cut(line, " serving on "); ok {
					found = true
					addrc <- strings.TrimSpace(rest)
					line = ""
				}
			}
			d.mu.Lock()
			d.stderr.WriteString(line)
			d.mu.Unlock()
			if err != nil {
				break
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-addrc:
		d.ready = time.Since(d.started)
		d.addr = addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited before serving: %v: %s", d.waitErr, d.stderrText())
	case <-time.After(readyTimeout):
		d.kill()
		return nil, fmt.Errorf("daemon not serving after %v: %s", readyTimeout, d.stderrText())
	}
}

// dieWithParent makes the kernel kill a child if this process dies
// without stopping it (a crash, or a kill from outside), so no daemon
// outlives the benchmark.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

// memMB reads one field (VmHWM, VmRSS) of the daemon's /proc status.
func (d *daemon) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads the daemon's VmRSS every interval until stop is
// closed, then returns the samples.
func (d *daemon) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- xs
				return
			case <-t.C:
				if v, err := d.memMB("VmRSS"); err == nil {
					xs = append(xs, v)
				}
			}
		}
	}()
	return out
}

// cpuStat is the machine-wide "cpu" line of /proc/stat, in ticks.
type cpuStat []float64

func readCPUStat() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var st cpuStat
	for _, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, err
		}
		st = append(st, x)
	}
	return st, nil
}

// stealShare is the share of all CPU ticks since a that the hypervisor
// gave to someone else (field 8, steal).
func (b cpuStat) stealShare(a cpuStat) float64 {
	var total float64
	for i := 0; i < 8; i++ { // guest time is already inside user and nice
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(40 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not drain: %s", d.stderrText())
	}
	if d.waitErr != nil {
		return fmt.Errorf("daemon exit: %v: %s", d.waitErr, d.stderrText())
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// client is the benchmark's one HTTP client: a keep-alive transport
// with at most conns connections to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed HTTP exchange.
type reply struct {
	status int
	cache  string // X-Cache
	body   []byte
	ms     float64 // request send → last body byte
}

// do sends one request and reads the whole body. The clock starts when
// the request is handed to the transport and stops after the last body
// byte, so it is the latency a client sees.
func (c *client) do(ctx context.Context, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{ms: msSince(t0)}, err
	}
	out, err := io.ReadAll(resp.Body)
	ms := msSince(t0)
	resp.Body.Close()
	if err != nil {
		return reply{status: resp.StatusCode, ms: ms}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: out, ms: ms}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
