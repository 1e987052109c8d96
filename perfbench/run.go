package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"smartndr/internal/serve"
)

// runOpts are one run's settings.
type runOpts struct {
	daemon   string // smartndrd binary
	out      string // build and span-file directory inside the checkout
	seed     int64
	seconds  int
	writeQoR string // when set, record the run's QoR digests into this file
}

// e2eResult is one end-to-end run against the real daemon.
type e2eResult struct {
	def       loadDef
	setups    []float64 // s, one per fresh daemon
	readies   []float64 // ms, exec → "serving on"
	ph        *phase
	rssMB     float64 // p90 of VmRSS over the timed phase
	hwmMB     float64 // VmHWM after the timed phase
	statsz    serve.Statsz
	p95Note   string    // why p95_ms is not a p95, when it is not
	steal     float64   // share of CPU time the host took during the timed phase
	discarded []float64 // steal of each timed phase measured again
}

// rss_mb is a high percentile of the daemon's resident set sampled over
// the timed phase. The literal peak (VmHWM) of a garbage-collected daemon
// running two allocation-heavy flows at once is bimodal from run to run
// (about 37 or 48-57 MB on cold-flow, decided by whether one collection
// happened to start while both flows held their peak live data); the
// sampled p90 repeats within a few percent. VmHWM is still printed and is
// the per-layer smartndrd.vmhwm_mb.
const (
	rssEvery    = 50 * time.Millisecond
	rssQuantile = 0.9
)

// A timed phase during which the hypervisor gave more than maxSteal of the
// machine's CPU time to other tenants measured the host, not the program:
// on a 2-vCPU VM, runs at 12 % and 34 % steal took 1.3x and 2.2x as long
// per cold flow as runs at under 1 %. Such a phase is measured again, once,
// on a fresh daemon; its outputs are still checked and counted. The steal
// signal is read from /proc/stat, independently of the metrics.
const (
	maxSteal     = 0.03
	stealRetries = 1
)

// runE2E prepares def.setups fresh daemons, measures the last one for
// o.seconds, then runs the post-phase checks.
func runE2E(ctx context.Context, o runOpts, def loadDef) (*e2eResult, error) {
	in, err := prepareInputs()
	if err != nil {
		return nil, err
	}
	// The client is not what is measured. It runs on one P with a lazier
	// collector, which leaves more of the machine to the daemon: on 2 vCPUs
	// that measured 3-9 % more interactive throughput than two Ps, in
	// alternating runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	res := &e2eResult{def: def}
	var (
		d *daemon
		c *client
		l load
	)
	setUp := func() error {
		nd, err := startDaemon(o.daemon)
		if err != nil {
			return err
		}
		d = nd
		c = newClient(d.addr, def.clients)
		l = def.new(o.seed, in)
		if err := l.prepare(ctx, c); err != nil {
			c.close()
			d.kill()
			return fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(d.started).Seconds())
		res.readies = append(res.readies, d.ready.Seconds()*1e3)
		return nil
	}
	for k := 0; k < def.setups; k++ {
		if err := setUp(); err != nil {
			return nil, err
		}
		if k < def.setups-1 {
			c.close()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() { d.kill() }() // no-op once stopped
	var attempted, failed int
	var problems []string
	for attempt := 0; ; attempt++ {
		if err := res.measure(ctx, o, d, c, l); err != nil {
			return nil, err
		}
		if res.steal <= maxSteal || attempt == stealRetries {
			break
		}
		res.discarded = append(res.discarded, res.steal)
		attempted += res.ph.attempted
		failed += res.ph.failed
		problems = append(problems, res.ph.problems...)
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	res.ph.attempted += attempted
	res.ph.failed += failed
	res.ph.problems = append(problems, res.ph.problems...)
	if o.writeQoR != "" {
		if err := recordChains(o.writeQoR, def.name, res.ph.chains); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure runs one timed phase on a prepared daemon, reads its resident
// set and statsz, runs the post-phase and QoR checks, and stops it.
func (res *e2eResult) measure(ctx context.Context, o runOpts, d *daemon, c *client, l load) error {
	cpu0, _ := readCPUStat()
	stop := make(chan struct{})
	samples := d.sampleRSS(rssEvery, stop)
	res.ph = l.timed(ctx, c, time.Duration(o.seconds)*time.Second)
	close(stop)
	res.steal = 0
	if cpu1, err := readCPUStat(); err == nil && cpu0 != nil {
		res.steal = cpu1.stealShare(cpu0)
	}
	rss := <-samples
	var err error
	if res.rssMB, err = tailPercentile(rss, rssQuantile); err != nil {
		// A run under 5 s holds too few samples for a p90; its largest
		// sample stands in.
		res.rssMB = slices.Max(append(rss, 0))
	}
	if res.hwmMB, err = d.memMB("VmHWM"); err != nil {
		return err
	}
	if err := getJSON(ctx, c, "/v1/statsz", &res.statsz); err != nil {
		return err
	}
	l.post(ctx, c, res.ph)
	c.close()
	if err := d.stop(); err != nil {
		return err
	}
	if o.seed == defaultSeed {
		bad, err := verifyChains(qorGolden, res.def.name, res.ph.chains)
		if err != nil && o.writeQoR == "" {
			return err
		}
		for _, msg := range bad {
			res.ph.fail(msg)
		}
	}
	return nil
}

func getJSON(ctx context.Context, c *client, path string, v any) error {
	rep, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rep.status)
	}
	return json.Unmarshal(rep.body, v)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of a run.
func (r *e2eResult) endToEnd() map[string]metric {
	lat := r.ph.lat
	p95, err := tailPercentile(lat, 0.95)
	if err != nil {
		// Only hier-100k lands here: a few designs per run leave no
		// percentile with ten samples beyond it. The slowest operation is
		// reported instead; it bounds the p95 from above.
		r.p95Note = fmt.Sprintf("%v; p95_ms reports the slowest of the %d operations", err, len(lat))
		p95 = math.Inf(-1)
		for _, x := range lat {
			p95 = max(p95, x)
		}
	}
	return map[string]metric{
		"setup_s":   {median(r.setups), "s"},
		"p50_ms":    {median(lat), "ms"},
		"p95_ms":    {p95, "ms"},
		"ops_per_s": {float64(len(lat)) / r.ph.dur.Seconds(), "1/s"},
		"rss_mb":    {r.rssMB, "MB"},
	}
}

// report prints the human-readable run summary.
func (r *e2eResult) report(w io.Writer, m map[string]metric) {
	ph := r.ph
	fmt.Fprintf(w, "workload %s: %d timed operations in %.2f s over %d client(s); %d attempted, %d failed\n",
		r.def.name, len(ph.lat), ph.dur.Seconds(), r.def.clients, ph.attempted, ph.failed)
	fmt.Fprintf(w, "  set-up (s, %d fresh daemons): %s\n", len(r.setups), fmtList(r.setups, "%.3f"))
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-10s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(w, "  samples    %12d\n", len(ph.lat))
	fmt.Fprintf(w, "  VmHWM      %12.4f MB (peak over the daemon's life, set-up included)\n", r.hwmMB)
	fmt.Fprintf(w, "  cpu steal  %11.2f%% of the machine's CPU time during the timed phase\n", 100*r.steal)
	for _, st := range r.discarded {
		fmt.Fprintf(w, "  an earlier timed phase saw %.2f%% steal and was measured again on a fresh daemon\n", 100*st)
	}
	if r.p95Note != "" {
		fmt.Fprintf(w, "  note: %s\n", r.p95Note)
	}
	if ph.flows > 0 {
		fmt.Fprintf(w, "  constraint defect: %d of %d smart-ndr results over the %.0f ps skew bound, %d with slew violations\n",
			ph.skewViol, ph.flows, maxSkew*1e12, ph.slewViol)
	}
	for _, p := range ph.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

func fmtList(xs []float64, f string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(f, x)
	}
	return s
}
