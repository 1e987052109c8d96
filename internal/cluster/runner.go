package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/serve"
)

// BackendSpec names one shard of the fleet. An empty URL selects the
// in-process loopback backend (Config.Local executes the work); a
// non-empty URL is a worker smartndrd reached over HTTP.
type BackendSpec struct {
	// Name is the backend's stable shard identity — ring placement
	// hashes it, so renaming a backend remaps its keys. Defaults to the
	// URL, or "local" for the loopback backend.
	Name string
	// URL is the worker's base URL (e.g. "http://10.0.0.7:8147").
	URL string
	// Transport overrides the transport (tests); when nil it is derived
	// from URL.
	Transport Transport
}

// Config parameterizes a Runner. Zero values select defaults sized for
// a small fleet; only Local is required.
type Config struct {
	// Local computes canonical keys on the frontend and executes
	// loopback work. Required.
	Local serve.Runner
	// Backends is the shard set. Empty means one in-process loopback
	// shard, no HTTP anywhere.
	Backends []BackendSpec
	// Replicas is the consistent-hash vnode count per backend (default 64).
	Replicas int
	// BackendConcurrent caps in-flight calls per backend (default 4).
	BackendConcurrent int
	// BackendQueue caps callers waiting per backend before ErrSaturated
	// (default 2×BackendConcurrent).
	BackendQueue int
	// DisableHedge turns hedged retries off (stragglers run to
	// completion on their owner).
	DisableHedge bool
	// HedgeAfter, when positive, is a fixed hedge delay. 0 selects the
	// adaptive delay: the recent p95 of the fastest healthy backend's
	// latency window, clamped to [HedgeMin, HedgeMax].
	HedgeAfter time.Duration
	// HedgeMinSamples is how many window samples a backend needs before
	// its p95 participates in the adaptive delay (default 8).
	HedgeMinSamples int
	// HedgeMin / HedgeMax clamp the adaptive delay (defaults 2ms / 2s).
	HedgeMin time.Duration
	HedgeMax time.Duration
	// HedgeDefault is the delay used before any window is warm
	// (default 100ms).
	HedgeDefault time.Duration
	// FailCooldown is how long a backend stays out of rotation after a
	// retryable failure (default 2s). Probe can bring it back sooner.
	FailCooldown time.Duration
	// WindowSize bounds each backend's latency window (default 128).
	WindowSize int
	// Client overrides the HTTP client used for URL backends.
	Client *http.Client
	// Tracer contributes the cluster.* counters to the shared registry.
	Tracer *obs.Tracer
	// Now overrides the clock (tests). Nil uses the real clock.
	Now func() time.Time
}

// backend is one shard: a transport plus the frontend-side state that
// governs admission to it (gate), hedge timing (latency window), and
// membership (the down-until clock).
type backend struct {
	name   string
	tr     Transport
	gate   *par.Gate
	window *latWindow

	downUntilNS atomic.Int64 // unix nanos; 0 = healthy

	requests     atomic.Uint64
	errors       atomic.Uint64
	hedges       atomic.Uint64
	hedgeWins    atomic.Uint64
	remoteHits   atomic.Uint64
	remoteMisses atomic.Uint64
}

// Runner routes serve requests across the shard set. It implements
// serve.Runner, so the HTTP layer in front of it is byte-for-byte the
// single-node service; and serve.ShardStatser, so /v1/statsz and
// /metricsz expose the per-shard view.
type Runner struct {
	local    serve.Runner
	backends []*backend
	ring     *Ring
	reg      *obs.Registry
	now      func() time.Time

	disableHedge    bool
	hedgeAfter      time.Duration
	hedgeMinSamples int
	hedgeMin        time.Duration
	hedgeMax        time.Duration
	hedgeDefault    time.Duration
	failCooldown    time.Duration
}

// NewRunner builds a cluster runner over the configured shard set.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: Config.Local is required")
	}
	specs := cfg.Backends
	if len(specs) == 0 {
		specs = []BackendSpec{{Name: "local"}}
	}
	if cfg.BackendConcurrent <= 0 {
		cfg.BackendConcurrent = 4
	}
	if cfg.BackendQueue <= 0 {
		cfg.BackendQueue = 2 * cfg.BackendConcurrent
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = 8
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 2 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 2 * time.Second
	}
	if cfg.HedgeDefault <= 0 {
		cfg.HedgeDefault = 100 * time.Millisecond
	}
	if cfg.FailCooldown <= 0 {
		cfg.FailCooldown = 2 * time.Second
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 128
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Tracer.Registry()
	if reg == nil {
		reg = &obs.Registry{}
	}

	names := make([]string, len(specs))
	seen := map[string]bool{}
	backends := make([]*backend, len(specs))
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = spec.URL
		}
		if name == "" {
			name = "local"
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", name)
		}
		seen[name] = true
		names[i] = name
		tr := spec.Transport
		if tr == nil {
			if spec.URL == "" {
				tr = &LocalTransport{Runner: cfg.Local}
			} else {
				tr = &HTTPTransport{Base: spec.URL, Client: cfg.Client}
			}
		}
		backends[i] = &backend{
			name:   name,
			tr:     tr,
			gate:   par.NewGate(cfg.BackendConcurrent, cfg.BackendQueue),
			window: newLatWindow(cfg.WindowSize),
		}
	}
	return &Runner{
		local:           cfg.Local,
		backends:        backends,
		ring:            NewRing(names, cfg.Replicas),
		reg:             reg,
		now:             now,
		disableHedge:    cfg.DisableHedge,
		hedgeAfter:      cfg.HedgeAfter,
		hedgeMinSamples: cfg.HedgeMinSamples,
		hedgeMin:        cfg.HedgeMin,
		hedgeMax:        cfg.HedgeMax,
		hedgeDefault:    cfg.HedgeDefault,
		failCooldown:    cfg.FailCooldown,
	}, nil
}

// Ring exposes the placement ring (tests, statsz).
func (r *Runner) Ring() *Ring { return r.ring }

// --- membership ---

func (r *Runner) healthy(b *backend) bool {
	until := b.downUntilNS.Load()
	return until == 0 || r.now().UnixNano() >= until
}

func (r *Runner) markDown(b *backend) {
	b.downUntilNS.Store(r.now().Add(r.failCooldown).UnixNano())
	r.reg.Add("cluster.backend_down", 1)
}

func (r *Runner) markUp(b *backend) { b.downUntilNS.Store(0) }

// Probe health-checks every backend, marking failures down for the
// cooldown and recovering backends that answer again. The daemon calls
// this on a timer in frontend role; tests call it directly.
func (r *Runner) Probe(ctx context.Context) {
	for _, b := range r.backends {
		if err := b.tr.Check(ctx); err != nil {
			r.markDown(b)
		} else {
			r.markUp(b)
		}
	}
}

// order returns seq reordered so healthy backends come first (relative
// ring order preserved within each class) — down backends are still
// eligible last so a fully-down fleet fails open rather than refusing.
func (r *Runner) order(seq []int) []int {
	out := make([]int, 0, len(seq))
	for _, b := range seq {
		if r.healthy(r.backends[b]) {
			out = append(out, b)
		}
	}
	for _, b := range seq {
		if !r.healthy(r.backends[b]) {
			out = append(out, b)
		}
	}
	return out
}

// hedgeDelay resolves the current hedge delay: fixed when configured,
// otherwise the recent p95 of the fastest healthy backend's window —
// "how long should a well-placed call take" — clamped to the
// configured band. Using the fastest replica's p95 (not the primary's)
// is what lets hedging route around a degraded-but-alive backend: a
// shard running 10× slow raises its own p95, not the delay.
func (r *Runner) hedgeDelay() time.Duration {
	if r.hedgeAfter > 0 {
		return r.hedgeAfter
	}
	best := time.Duration(-1)
	for _, b := range r.backends {
		if !r.healthy(b) {
			continue
		}
		q, n := b.window.Quantile(0.95)
		if n < r.hedgeMinSamples {
			continue
		}
		d := time.Duration(q * float64(time.Second))
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		best = r.hedgeDefault
	}
	if best < r.hedgeMin {
		best = r.hedgeMin
	}
	if best > r.hedgeMax {
		best = r.hedgeMax
	}
	return best
}

// --- execution ---

// exec runs one transport call against backend index b under its gate,
// recording latency, per-shard counters, and health transitions.
func exec[T any](r *Runner, ctx context.Context, b int,
	call func(ctx context.Context, tr Transport) (T, Meta, error)) (T, error) {

	be := r.backends[b]
	var zero T
	release, err := be.gate.Acquire(ctx)
	if err != nil {
		be.errors.Add(1)
		r.reg.Add("cluster.errors", 1)
		return zero, err
	}
	defer release()
	be.requests.Add(1)
	r.reg.Add("cluster.requests", 1)
	t0 := r.now()
	out, meta, err := call(ctx, be.tr)
	switch meta.Cache {
	case serve.CacheHit, serve.CacheShared:
		be.remoteHits.Add(1)
		r.reg.Add("cluster.remote_hits", 1)
	case serve.CacheMiss:
		be.remoteMisses.Add(1)
		r.reg.Add("cluster.remote_misses", 1)
	}
	if err != nil {
		be.errors.Add(1)
		r.reg.Add("cluster.errors", 1)
		if marksDown(err) {
			r.markDown(be)
		}
		return zero, err
	}
	// Only successful calls feed the hedge-timing window: canceled
	// hedge losers would record ~hedge-delay samples and fast failures
	// near-zero ones, dragging the adaptive p95 into a feedback loop of
	// ever more aggressive hedging.
	be.window.Observe(r.now().Sub(t0).Seconds())
	return out, nil
}

// callSharded routes one call along the key's preference sequence:
// primary = the owning shard, hedged onto the next replica after the
// hedge delay, then sequential failover across the remaining backends
// when the error is retryable (network, 5xx, saturation) — a request
// error (400) fails immediately everywhere and is returned as-is.
func callSharded[T any](r *Runner, ctx context.Context, key string,
	call func(ctx context.Context, tr Transport) (T, Meta, error)) (T, error) {

	seq := r.order(r.ring.Sequence(key, nil))
	var zero T
	if len(seq) == 0 {
		return zero, fmt.Errorf("cluster: no backends")
	}
	primary := func(ctx context.Context) (T, error) {
		return exec(r, ctx, seq[0], call)
	}
	var backup func(ctx context.Context) (T, error)
	if !r.disableHedge && len(seq) > 1 {
		hedgeTo := seq[1]
		backup = func(ctx context.Context) (T, error) {
			r.backends[hedgeTo].hedges.Add(1)
			r.reg.Add("cluster.hedges", 1)
			return exec(r, ctx, hedgeTo, call)
		}
	}
	out, hedged, err := par.Hedge(ctx, r.hedgeDelay(), primary, backup)
	if err == nil {
		if hedged {
			r.backends[seq[1]].hedgeWins.Add(1)
			r.reg.Add("cluster.hedge_wins", 1)
		}
		return out, nil
	}
	if !retryable(err) {
		return zero, err
	}
	// Hedged pair exhausted: walk the rest of the sequence once.
	start := 1
	if backup != nil {
		start = 2
	}
	for _, b := range seq[start:] {
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		r.reg.Add("cluster.failovers", 1)
		out, ferr := exec(r, ctx, b, call)
		if ferr == nil {
			return out, nil
		}
		if !retryable(ferr) {
			return zero, ferr
		}
		err = ferr
	}
	return zero, err
}

// --- serve.Runner ---

// FlowKey implements serve.Runner: keys are computed locally — they
// are pure functions of the request, and routing depends on them.
func (r *Runner) FlowKey(req *serve.FlowRequest) (string, error) {
	return r.local.FlowKey(req)
}

// OpenSession implements serve.SessionRunner by delegating to the local
// runner. Sessions are deliberately node-local: a session is a live tree
// plus an incremental engine, and shipping per-edit dirty state across
// the fleet would cost more than the microseconds it saves. Clients pin
// a session to the node that created it; content addresses make results
// portable anyway. Returns an error when the local runner cannot host
// sessions (the serve layer reports 501).
func (r *Runner) OpenSession(ctx context.Context, req *serve.FlowRequest, tr *obs.Tracer) (serve.SessionHandle, error) {
	sr, ok := r.local.(serve.SessionRunner)
	if !ok {
		return nil, fmt.Errorf("cluster: local runner %T does not host sessions", r.local)
	}
	r.reg.Add("cluster.requests", 1)
	return sr.OpenSession(ctx, req, tr)
}

// SweepKey implements serve.Runner.
func (r *Runner) SweepKey(req *serve.SweepRequest) (string, error) {
	return r.local.SweepKey(req)
}

// RunFlow implements serve.Runner: the flow is owned by the shard its
// canonical key hashes to, so a cold run happens on exactly one backend
// fleet-wide.
func (r *Runner) RunFlow(ctx context.Context, req *serve.FlowRequest, _ *obs.Tracer) (*serve.FlowResponse, error) {
	key, err := r.local.FlowKey(req)
	if err != nil {
		return nil, err
	}
	return callSharded(r, ctx, key, func(ctx context.Context, t Transport) (*serve.FlowResponse, Meta, error) {
		return t.Flow(ctx, req)
	})
}

// RunSweep implements serve.Runner: each arm becomes a single-arm sweep
// routed by its own canonical key, so repeat sweeps hit each arm's
// owner cache, the whole batch spreads across the fleet under
// per-backend gates, and a straggling arm is hedged onto the next
// replica after the recent p95.
func (r *Runner) RunSweep(ctx context.Context, req *serve.SweepRequest, tr *obs.Tracer) (*serve.SweepResponse, error) {
	key, err := r.local.SweepKey(req)
	if err != nil {
		return nil, err
	}
	n := len(req.Arms)
	sp := tr.Start("cluster.sweep", obs.I("arms", n), obs.I("backends", len(r.backends)))
	defer sp.End()

	results := make([]serve.SweepArmResult, n)
	envs := make([]*serve.SweepResponse, n)
	// One goroutine per arm by default: n is bounded by the serve
	// layer's arm limit, and real concurrency is bounded by the
	// per-backend gates. A client-requested Workers bound still caps
	// the fan-out, matching single-node semantics.
	workers := n
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}
	err = par.ForEach(ctx, workers, n, func(i int) error {
		armReq := singleArm(req, i)
		armKey, err := r.local.SweepKey(armReq)
		if err != nil {
			return err
		}
		armSp := sp.Child("arm", obs.I("i", i),
			obs.S("scheme", req.Arms[i].Scheme), obs.S("corner", req.Arms[i].Corner))
		defer armSp.End()
		resp, err := callSharded(r, ctx, armKey, func(ctx context.Context, t Transport) (*serve.SweepResponse, Meta, error) {
			return t.Sweep(ctx, armReq)
		})
		if err != nil {
			return err
		}
		if len(resp.Arms) != 1 {
			return fmt.Errorf("cluster: arm %d: backend returned %d results for a single-arm sweep", i, len(resp.Arms))
		}
		envs[i] = resp
		results[i] = resp.Arms[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Envelope fields are identical on every backend (the engine is
	// deterministic); take them from arm 0 and stamp the full-sweep
	// key, matching the single-node response byte for byte.
	return &serve.SweepResponse{
		Key:     key,
		Bench:   envs[0].Bench,
		Tech:    envs[0].Tech,
		Sinks:   envs[0].Sinks,
		Buffers: envs[0].Buffers,
		Arms:    results,
	}, nil
}

// singleArm projects one arm of a sweep into its own request, carrying
// only semantic fields — Workers and TimeoutMS are excluded so the
// arm's canonical key (and therefore its owner and its worker-side
// cache entry) is a pure function of the work.
func singleArm(req *serve.SweepRequest, i int) *serve.SweepRequest {
	return &serve.SweepRequest{
		Bench:    req.Bench,
		Spec:     req.Spec,
		Tech:     req.Tech,
		InSlewPS: req.InSlewPS,
		Arms:     []serve.SweepArm{req.Arms[i]},
	}
}

// ShardStats implements serve.ShardStatser: the per-shard view
// exported via /v1/statsz and as labeled series on /metricsz.
func (r *Runner) ShardStats() []serve.ShardStat {
	out := make([]serve.ShardStat, len(r.backends))
	for i, b := range r.backends {
		p95, _ := b.window.Quantile(0.95)
		out[i] = serve.ShardStat{
			Shard:        b.name,
			Healthy:      r.healthy(b),
			Requests:     b.requests.Load(),
			Errors:       b.errors.Load(),
			Hedges:       b.hedges.Load(),
			HedgeWins:    b.hedgeWins.Load(),
			RemoteHits:   b.remoteHits.Load(),
			RemoteMisses: b.remoteMisses.Load(),
			InFlight:     b.gate.Held(),
			P95MS:        p95 * 1e3,
		}
	}
	return out
}
