package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/serve"
)

// keyRunner is the frontend-side local runner for stub-transport tests:
// keys are cheap pure functions of the request, and loopback execution
// just echoes the request.
type keyRunner struct{}

func (keyRunner) FlowKey(req *serve.FlowRequest) (string, error) {
	return "flow:" + req.Bench, nil
}

func (keyRunner) RunFlow(ctx context.Context, req *serve.FlowRequest, _ *obs.Tracer) (*serve.FlowResponse, error) {
	return &serve.FlowResponse{Key: "flow:" + req.Bench, Bench: req.Bench, Scheme: "local"}, nil
}

func (keyRunner) SweepKey(req *serve.SweepRequest) (string, error) {
	parts := make([]string, len(req.Arms))
	for i, a := range req.Arms {
		parts[i] = a.Scheme + ":" + a.Corner
	}
	return "sweep:" + req.Bench + "|" + strings.Join(parts, ","), nil
}

func (keyRunner) RunSweep(ctx context.Context, req *serve.SweepRequest, _ *obs.Tracer) (*serve.SweepResponse, error) {
	return &serve.SweepResponse{Bench: req.Bench}, nil
}

// stubTransport is a scriptable backend: fixed latency, optional
// failure, optional reported remote-cache outcome. It records which
// flows and sweep arms landed on it.
type stubTransport struct {
	name  string
	delay time.Duration
	cache string

	mu          sync.Mutex
	fail        error
	down        bool // Check fails
	flows       []string
	sweeps      []string
	inflight    int
	maxInflight int
}

func (s *stubTransport) setFail(err error) {
	s.mu.Lock()
	s.fail = err
	s.mu.Unlock()
}

func (s *stubTransport) setDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

func (s *stubTransport) flowCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows)
}

func (s *stubTransport) sweepCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sweeps)
}

func (s *stubTransport) wait(ctx context.Context) error {
	if s.delay <= 0 {
		return nil
	}
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *stubTransport) Flow(ctx context.Context, req *serve.FlowRequest) (*serve.FlowResponse, Meta, error) {
	s.mu.Lock()
	s.flows = append(s.flows, req.Bench)
	fail := s.fail
	s.mu.Unlock()
	if err := s.wait(ctx); err != nil {
		return nil, Meta{}, err
	}
	if fail != nil {
		return nil, Meta{}, fail
	}
	return &serve.FlowResponse{Key: "flow:" + req.Bench, Bench: req.Bench, Scheme: s.name}, Meta{Cache: s.cache}, nil
}

// Sweep models a serial worker: one delay per arm. The cluster path
// always sends single-arm sweeps.
func (s *stubTransport) Sweep(ctx context.Context, req *serve.SweepRequest) (*serve.SweepResponse, Meta, error) {
	s.mu.Lock()
	for _, a := range req.Arms {
		s.sweeps = append(s.sweeps, a.Scheme+":"+a.Corner)
	}
	fail := s.fail
	s.inflight++
	if s.inflight > s.maxInflight {
		s.maxInflight = s.inflight
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()
	for range req.Arms {
		if err := s.wait(ctx); err != nil {
			return nil, Meta{}, err
		}
	}
	if fail != nil {
		return nil, Meta{}, fail
	}
	results := make([]serve.SweepArmResult, len(req.Arms))
	for i, a := range req.Arms {
		results[i] = serve.SweepArmResult{Scheme: a.Scheme}
	}
	return &serve.SweepResponse{
		Bench: req.Bench,
		Sinks: 7,
		Arms:  results,
	}, Meta{Cache: s.cache}, nil
}

func (s *stubTransport) Check(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return &serve.StatusError{Code: 503, Err: errors.New("stub down")}
	}
	return nil
}

// newStubCluster builds a runner over n stub backends named w0..wN-1.
func newStubCluster(t *testing.T, n int, mut func(cfg *Config), delays ...time.Duration) (*Runner, []*stubTransport) {
	t.Helper()
	stubs := make([]*stubTransport, n)
	specs := make([]BackendSpec, n)
	for i := range stubs {
		var d time.Duration
		if i < len(delays) {
			d = delays[i]
		}
		stubs[i] = &stubTransport{name: fmt.Sprintf("w%d", i), delay: d}
		specs[i] = BackendSpec{Name: stubs[i].name, Transport: stubs[i]}
	}
	cfg := Config{Local: keyRunner{}, Backends: specs}
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, stubs
}

// benchOwnedBy generates distinct flow bench names whose canonical keys
// are owned by backend idx, using the runner's real ring.
func benchOwnedBy(r *Runner, idx, count int, tag string) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		bench := fmt.Sprintf("%s-%d", tag, i)
		if r.Ring().Owner("flow:"+bench) == idx {
			out = append(out, bench)
		}
	}
	return out
}

func TestRunnerFlowRoutesToOwner(t *testing.T) {
	r, stubs := newStubCluster(t, 3, func(cfg *Config) { cfg.DisableHedge = true })
	for i := 0; i < 3; i++ {
		bench := benchOwnedBy(r, i, 1, fmt.Sprintf("route%d", i))[0]
		resp, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Scheme != stubs[i].name {
			t.Errorf("bench %q served by %s, want owner %s", bench, resp.Scheme, stubs[i].name)
		}
	}
	total := 0
	for _, s := range stubs {
		total += s.flowCount()
	}
	if total != 3 {
		t.Errorf("backends saw %d calls total, want exactly 3 (one per request, no duplicates)", total)
	}
}

func TestRunnerFlowFailsOverOnRetryableError(t *testing.T) {
	r, stubs := newStubCluster(t, 3, func(cfg *Config) { cfg.DisableHedge = true })
	bench := benchOwnedBy(r, 0, 1, "failover")[0]
	stubs[0].setFail(&serve.StatusError{Code: 500, Err: errors.New("shard wedged")})

	resp, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil)
	if err != nil {
		t.Fatalf("failover did not rescue the call: %v", err)
	}
	seq := r.Ring().Sequence("flow:"+bench, nil)
	if want := stubs[seq[1]].name; resp.Scheme != want {
		t.Errorf("failover served by %s, want next-in-sequence %s", resp.Scheme, want)
	}
	// The retryable failure took the owner out of rotation.
	if r.healthy(r.backends[0]) {
		t.Error("owner still healthy after a retryable failure")
	}
	// Subsequent calls for the same key skip the down owner entirely.
	resp2, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil)
	if err != nil || resp2.Scheme == stubs[0].name {
		t.Errorf("down owner still receiving calls: scheme=%s err=%v", resp2.Scheme, err)
	}
}

func TestRunnerFlowRequestErrorDoesNotFailOver(t *testing.T) {
	r, stubs := newStubCluster(t, 3, func(cfg *Config) { cfg.DisableHedge = true })
	bench := benchOwnedBy(r, 1, 1, "badreq")[0]
	stubs[1].setFail(&serve.StatusError{Code: 400, Err: errors.New("bad request")})

	_, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil)
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("err = %v, want the owner's 400", err)
	}
	for i, s := range stubs {
		if i != 1 && s.flowCount() != 0 {
			t.Errorf("backend %d saw %d calls for a non-retryable failure, want 0", i, s.flowCount())
		}
	}
	if !r.healthy(r.backends[1]) {
		t.Error("a 400 marked the backend down; only retryable failures may")
	}
}

func TestRunnerSweepFansOutAndKeepsArmOrder(t *testing.T) {
	r, stubs := newStubCluster(t, 3, func(cfg *Config) { cfg.DisableHedge = true })
	arms := make([]serve.SweepArm, 12)
	for i := range arms {
		arms[i] = serve.SweepArm{Scheme: fmt.Sprintf("s%02d", i), Corner: "typ"}
	}
	req := &serve.SweepRequest{Bench: "fan", Arms: arms, Workers: 5}
	resp, err := r.RunSweep(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantKey, _ := keyRunner{}.SweepKey(req)
	if resp.Key != wantKey {
		t.Errorf("sweep key = %q, want the full-sweep key %q", resp.Key, wantKey)
	}
	if resp.Bench != "fan" || resp.Sinks != 7 {
		t.Errorf("envelope = %+v, want bench/sinks from the arm responses", resp)
	}
	if len(resp.Arms) != len(arms) {
		t.Fatalf("got %d arm results, want %d", len(resp.Arms), len(arms))
	}
	for i, a := range resp.Arms {
		if a.Scheme != arms[i].Scheme {
			t.Errorf("arm %d = %q, want %q (results must be index-ordered)", i, a.Scheme, arms[i].Scheme)
		}
	}
	// Every arm landed somewhere, and each arm's owner (per the ring)
	// is the backend that served it.
	total := 0
	for _, s := range stubs {
		total += s.sweepCount()
	}
	if total != len(arms) {
		t.Errorf("backends saw %d single-arm sweeps, want %d", total, len(arms))
	}
	for i := range arms {
		armKey, _ := keyRunner{}.SweepKey(singleArm(req, i))
		owner := r.Ring().Owner(armKey)
		stubs[owner].mu.Lock()
		served := false
		for _, got := range stubs[owner].sweeps {
			if got == arms[i].Scheme+":"+arms[i].Corner {
				served = true
			}
		}
		stubs[owner].mu.Unlock()
		if !served {
			t.Errorf("arm %d did not land on its owner w%d", i, owner)
		}
	}
}

func TestRunnerRemoteCacheCountsInShardStats(t *testing.T) {
	r, stubs := newStubCluster(t, 2, func(cfg *Config) { cfg.DisableHedge = true })
	stubs[0].cache = serve.CacheHit
	stubs[1].cache = serve.CacheMiss
	for i := 0; i < 2; i++ {
		bench := benchOwnedBy(r, i, 1, fmt.Sprintf("tally%d", i))[0]
		if _, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil); err != nil {
			t.Fatal(err)
		}
	}
	stats := r.ShardStats()
	if len(stats) != 2 {
		t.Fatalf("ShardStats len = %d, want 2", len(stats))
	}
	if stats[0].RemoteHits != 1 || stats[0].RemoteMisses != 0 {
		t.Errorf("w0 stats = %+v, want 1 remote hit", stats[0])
	}
	if stats[1].RemoteMisses != 1 || stats[1].RemoteHits != 0 {
		t.Errorf("w1 stats = %+v, want 1 remote miss", stats[1])
	}
	for i, st := range stats {
		if st.Requests != 1 || !st.Healthy || st.InFlight != 0 {
			t.Errorf("shard %d stats = %+v, want 1 request, healthy, idle", i, st)
		}
	}
}

func TestRunnerProbeMarksDownAndRecovers(t *testing.T) {
	r, stubs := newStubCluster(t, 3, nil)
	stubs[2].setDown(true)
	r.Probe(context.Background())
	if r.healthy(r.backends[2]) {
		t.Fatal("backend failing its health check still marked healthy")
	}
	// Routing prefers healthy backends: a key owned by w2 is served
	// elsewhere while w2 is down.
	bench := benchOwnedBy(r, 2, 1, "probe")[0]
	resp, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scheme == stubs[2].name {
		t.Errorf("down backend served the call")
	}
	stubs[2].setDown(false)
	r.Probe(context.Background())
	if !r.healthy(r.backends[2]) {
		t.Fatal("recovered backend not marked healthy by probe")
	}
}

func TestRunnerAllBackendsDownFailsOpen(t *testing.T) {
	r, stubs := newStubCluster(t, 2, func(cfg *Config) { cfg.DisableHedge = true })
	stubs[0].setDown(true)
	stubs[1].setDown(true)
	r.Probe(context.Background())
	// Every backend is in cooldown, but the fleet still serves: down
	// backends stay eligible rather than turning the frontend into a
	// brick.
	resp, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: "failopen"}, nil)
	if err != nil || resp == nil {
		t.Fatalf("fully-down fleet refused the call: %v", err)
	}
}

func TestRunnerStandaloneUsesLoopback(t *testing.T) {
	r, err := NewRunner(Config{Local: keyRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ring().Backends() != 1 {
		t.Fatal("empty backend list should be one loopback shard")
	}
	resp, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: "solo"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scheme != "local" {
		t.Errorf("standalone flow served by %q, want the local runner", resp.Scheme)
	}
	stats := r.ShardStats()
	if len(stats) != 1 || stats[0].Requests != 1 {
		t.Errorf("standalone ShardStats = %+v, want one shard with one request", stats)
	}
}

func TestRunnerConfigValidation(t *testing.T) {
	if _, err := NewRunner(Config{}); err == nil {
		t.Error("NewRunner accepted a nil Local runner")
	}
	_, err := NewRunner(Config{Local: keyRunner{}, Backends: []BackendSpec{
		{Name: "dup", URL: "http://a"}, {Name: "dup", URL: "http://b"},
	}})
	if err == nil {
		t.Error("NewRunner accepted duplicate backend names")
	}
}

func TestRunnerHedgeDelayTracksFastestHealthyBackend(t *testing.T) {
	r, _ := newStubCluster(t, 2, nil)
	// Before any window is warm the default applies.
	if got := r.hedgeDelay(); got != 100*time.Millisecond {
		t.Errorf("cold hedge delay = %v, want the 100ms default", got)
	}
	// Warm w0 slow, w1 fast: the delay must follow the fastest healthy
	// backend, not the slowest — that is what routes around a degraded
	// shard.
	for i := 0; i < 16; i++ {
		r.backends[0].window.Observe(0.500)
		r.backends[1].window.Observe(0.010)
	}
	if got := r.hedgeDelay(); got != 10*time.Millisecond {
		t.Errorf("hedge delay = %v, want the fast backend's 10ms p95", got)
	}
	// With the fast backend down, the slow one's p95 governs.
	r.markDown(r.backends[1])
	if got := r.hedgeDelay(); got != 500*time.Millisecond {
		t.Errorf("hedge delay with w1 down = %v, want 500ms", got)
	}
	// The clamp floors tiny windows.
	r.markUp(r.backends[1])
	for i := 0; i < 140; i++ {
		r.backends[1].window.Observe(0.0001)
	}
	if got := r.hedgeDelay(); got != 2*time.Millisecond {
		t.Errorf("hedge delay = %v, want the 2ms floor", got)
	}
}

// TestClusterSweepThroughputScales is the scaling half of the PR's
// perf contract: the same sweep against 1 and 3 backends (each a
// serial 5ms-per-arm worker) must finish at least 2× faster on 3. The
// arm set is chosen so the ring splits it evenly — this measures
// fan-out, not hash luck.
func TestClusterSweepThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test is not a -short test")
	}
	const perBackend = 12
	const armDelay = 5 * time.Millisecond

	mut := func(cfg *Config) {
		cfg.DisableHedge = true
		cfg.BackendConcurrent = 1 // serial per backend: wall clock ∝ widest shard
		cfg.BackendQueue = 4 * perBackend
	}
	r3, _ := newStubCluster(t, 3, mut, armDelay, armDelay, armDelay)
	r1, _ := newStubCluster(t, 1, mut, armDelay)

	// Pick perBackend arms owned by each of r3's backends. r1 has a
	// single backend, so the same arms serialize there.
	var arms []serve.SweepArm
	counts := make([]int, 3)
	for i := 0; len(arms) < 3*perBackend; i++ {
		arm := serve.SweepArm{Scheme: fmt.Sprintf("arm%03d", i), Corner: "typ"}
		probe := &serve.SweepRequest{Bench: "scale", Arms: []serve.SweepArm{arm}}
		key, _ := keyRunner{}.SweepKey(probe)
		owner := r3.Ring().Owner(key)
		if counts[owner] < perBackend {
			counts[owner]++
			arms = append(arms, arm)
		}
	}
	req := &serve.SweepRequest{Bench: "scale", Arms: arms}

	t0 := time.Now()
	if _, err := r1.RunSweep(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	oneBackend := time.Since(t0)

	t0 = time.Now()
	if _, err := r3.RunSweep(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	threeBackends := time.Since(t0)

	speedup := float64(oneBackend) / float64(threeBackends)
	t.Logf("sweep %d arms × %v: 1 backend %v, 3 backends %v (%.2fx)",
		len(arms), armDelay, oneBackend, threeBackends, speedup)
	if speedup < 2.0 {
		t.Errorf("3-backend sweep is only %.2fx faster than 1 backend (%v vs %v), want >= 2x",
			speedup, oneBackend, threeBackends)
	}
}

// TestClusterHedgingCutsTailLatency is the tail half of the perf
// contract: with one backend injected 10× slow, hedged retries must
// cut the tail latency of calls owned by the slow shard by at least 2×
// versus no hedging. The tail is the highest percentile with ten samples
// beyond it — p75 of the 40 calls — so one scheduler stall on a loaded
// machine cannot decide the comparison alone.
func TestClusterHedgingCutsTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test is not a -short test")
	}
	const fastDelay = 3 * time.Millisecond
	const slowDelay = 10 * fastDelay // one shard injected 10× slow

	build := func(disable bool) (*Runner, []*stubTransport) {
		return newStubCluster(t, 3, func(cfg *Config) {
			cfg.DisableHedge = disable
		}, slowDelay, fastDelay, fastDelay) // w0 is the degraded shard
	}
	hedged, _ := build(false)
	plain, _ := build(true)

	// Warm every backend's latency window through real routed calls so
	// the adaptive delay is live (the fast shards' p95, ~2ms) before
	// measurement starts.
	warm := func(r *Runner) {
		for i := 0; i < 3; i++ {
			for _, bench := range benchOwnedBy(r, i, 10, fmt.Sprintf("warm%d", i)) {
				if _, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	warm(hedged)
	warm(plain)

	tail := func(r *Runner) time.Duration {
		benches := benchOwnedBy(r, 0, 40, "tail")
		lat := make([]time.Duration, 0, len(benches))
		for _, bench := range benches {
			t0 := time.Now()
			if _, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)-11]
	}

	plainTail := tail(plain)
	hedgedTail := tail(hedged)
	cut := float64(plainTail) / float64(hedgedTail)
	t.Logf("slow-shard p75 of 40: no hedge %v, hedged %v (%.2fx cut)", plainTail, hedgedTail, cut)
	if cut < 2.0 {
		t.Errorf("hedging cut p75 only %.2fx (%v vs %v), want >= 2x", cut, plainTail, hedgedTail)
	}

	stats := hedged.ShardStats()
	wins := uint64(0)
	for _, st := range stats {
		wins += st.HedgeWins
	}
	if wins == 0 {
		t.Error("no hedge wins recorded although the owner shard is 100x slower than the hedge delay")
	}
	for _, st := range plain.ShardStats() {
		if st.Hedges != 0 {
			t.Errorf("DisableHedge runner recorded %d hedges on %s", st.Hedges, st.Shard)
		}
	}
}

// --- error classification and health-signal regressions ---

// wrapErrTransport mimics the real HTTP client's error surface: every
// transport error comes back wrapped in *url.Error, which is how
// http.Client.Do reports a canceled request. The raw-error stubs above
// are exactly how an ==-based cancellation check slips past tests.
type wrapErrTransport struct{ inner Transport }

func (w wrapErrTransport) Flow(ctx context.Context, req *serve.FlowRequest) (*serve.FlowResponse, Meta, error) {
	resp, m, err := w.inner.Flow(ctx, req)
	if err != nil {
		err = &url.Error{Op: "Post", URL: "http://stub/v1/flow", Err: err}
	}
	return resp, m, err
}

func (w wrapErrTransport) Sweep(ctx context.Context, req *serve.SweepRequest) (*serve.SweepResponse, Meta, error) {
	resp, m, err := w.inner.Sweep(ctx, req)
	if err != nil {
		err = &url.Error{Op: "Post", URL: "http://stub/v1/sweep", Err: err}
	}
	return resp, m, err
}

func (w wrapErrTransport) Check(ctx context.Context) error { return w.inner.Check(ctx) }

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retryable bool
		marksDown bool
	}{
		{"nil", nil, false, false},
		{"raw cancel", context.Canceled, false, false},
		{"wrapped cancel", &url.Error{Op: "Post", URL: "http://w0/v1/flow", Err: context.Canceled}, false, false},
		{"wrapped deadline", fmt.Errorf("call: %w", context.DeadlineExceeded), false, false},
		{"status 500", &serve.StatusError{Code: 500, Err: errors.New("wedged")}, true, true},
		{"wrapped 429", fmt.Errorf("call: %w", &serve.StatusError{Code: 429, Err: errors.New("busy")}), true, true},
		{"status 400", &serve.StatusError{Code: 400, Err: errors.New("bad")}, false, false},
		{"network", &url.Error{Op: "Post", URL: "http://w0/v1/flow", Err: errors.New("connection refused")}, true, true},
		{"gate saturated", par.ErrSaturated, true, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.retryable {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.retryable)
		}
		if got := marksDown(tc.err); got != tc.marksDown {
			t.Errorf("%s: marksDown = %v, want %v", tc.name, got, tc.marksDown)
		}
	}
}

// TestHedgeWinDoesNotMarkDownCanceledLoser pins the membership-flap
// regression: par.Hedge cancels the losing branch on every hedge win,
// the HTTP client reports that as a *url.Error wrapping
// context.Canceled, and that must never count as a backend failure —
// otherwise every hedge win puts a healthy shard into cooldown and
// reorders ring ownership.
func TestHedgeWinDoesNotMarkDownCanceledLoser(t *testing.T) {
	r, stubs := newStubCluster(t, 2, func(cfg *Config) {
		cfg.HedgeAfter = 2 * time.Millisecond
		for i := range cfg.Backends {
			cfg.Backends[i].Transport = wrapErrTransport{inner: cfg.Backends[i].Transport}
		}
	}, 250*time.Millisecond, 0) // w0 straggles; w1 answers instantly

	bench := benchOwnedBy(r, 0, 1, "loser")[0]
	resp, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scheme != stubs[1].name {
		t.Fatalf("winner = %s, want the hedge backup %s", resp.Scheme, stubs[1].name)
	}
	// Wait for the canceled loser to unwind its exec — once its gate
	// slot is back, its health verdict has been rendered.
	deadline := time.Now().Add(2 * time.Second)
	for r.backends[0].gate.Held() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("loser never released its gate slot")
		}
		time.Sleep(time.Millisecond)
	}
	if !r.healthy(r.backends[0]) {
		t.Error("hedge win marked the slow-but-healthy loser down (wrapped cancel treated as backend failure)")
	}
	if _, n := r.backends[0].window.Quantile(0.95); n != 0 {
		t.Errorf("canceled loser fed %d samples into w0's hedge window, want 0", n)
	}
}

// TestSaturatedOwnerFailsOverWithoutMarkDown pins the split between
// "fail over" and "mark down": par.ErrSaturated from the frontend's
// own per-backend gate moves the call to the next replica but leaves
// the owner in rotation.
func TestSaturatedOwnerFailsOverWithoutMarkDown(t *testing.T) {
	r, stubs := newStubCluster(t, 2, func(cfg *Config) {
		cfg.DisableHedge = true
		cfg.BackendConcurrent = 1
		cfg.BackendQueue = 1
	})
	bench := benchOwnedBy(r, 0, 1, "sat")[0]

	// Fill the owner's slot and wait line so its next Acquire refuses.
	g := r.backends[0].gate
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if rel2, err := g.Acquire(context.Background()); err == nil {
			rel2()
		}
	}()
	for g.Waiting() != 1 {
		runtime.Gosched()
	}

	resp, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil)
	if err != nil {
		t.Fatalf("saturated owner did not fail over: %v", err)
	}
	if resp.Scheme != stubs[1].name {
		t.Errorf("served by %s, want failover to %s", resp.Scheme, stubs[1].name)
	}
	if !r.healthy(r.backends[0]) {
		t.Error("frontend-side saturation marked the owner down; it is not a health signal")
	}
	// The per-shard and fleet error series advanced together on the
	// refusal.
	if got, shard := r.reg.Counter("cluster.errors"), r.backends[0].errors.Load(); shard != 1 || got != float64(shard) {
		t.Errorf("cluster.errors=%v shard errors=%d, want both 1", got, shard)
	}
	rel()
	<-waiterDone
}

// TestFailedCallsDoNotFeedHedgeWindow: only successes may feed the
// adaptive hedge timing — near-zero failure samples would drag the p95
// into ever more aggressive hedging.
func TestFailedCallsDoNotFeedHedgeWindow(t *testing.T) {
	r, stubs := newStubCluster(t, 2, func(cfg *Config) { cfg.DisableHedge = true })
	bench := benchOwnedBy(r, 0, 1, "window")[0]
	stubs[0].setFail(&serve.StatusError{Code: 500, Err: errors.New("boom")})
	if _, err := r.RunFlow(context.Background(), &serve.FlowRequest{Bench: bench}, nil); err != nil {
		t.Fatal(err) // rescued by failover
	}
	if _, n := r.backends[0].window.Quantile(0.95); n != 0 {
		t.Errorf("failed call fed %d samples into w0's hedge window, want 0", n)
	}
	if _, n := r.backends[1].window.Quantile(0.95); n != 1 {
		t.Errorf("successful failover fed %d samples into w1's window, want 1", n)
	}
}

// TestClusterSweepHonorsWorkersBound: a client-requested Workers bound
// caps the clustered arm fan-out just as it does standalone.
func TestClusterSweepHonorsWorkersBound(t *testing.T) {
	r, stubs := newStubCluster(t, 3, func(cfg *Config) { cfg.DisableHedge = true },
		2*time.Millisecond, 2*time.Millisecond, 2*time.Millisecond)
	arms := make([]serve.SweepArm, 12)
	for i := range arms {
		arms[i] = serve.SweepArm{Scheme: fmt.Sprintf("wb%02d", i), Corner: "typ"}
	}
	req := &serve.SweepRequest{Bench: "bound", Arms: arms, Workers: 1}
	if _, err := r.RunSweep(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	for i, s := range stubs {
		s.mu.Lock()
		max := s.maxInflight
		s.mu.Unlock()
		if max > 1 {
			t.Errorf("backend %d saw %d concurrent arms with Workers=1, want <= 1", i, max)
		}
	}
}
