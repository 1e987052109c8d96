// Package serve is the long-running flow service behind cmd/smartndrd:
// an HTTP/JSON layer over the smartndr engine that amortizes work
// across requests instead of paying full synthesis cost per CLI
// invocation.
//
// The endpoints:
//
//	POST /v1/flow    run one benchmark through one scheme → metrics
//	POST /v1/sweep   scheme×corner arm batch against one shared tree
//	POST /v1/batch   many flow requests, one round trip, index-ordered
//	POST /v1/session          open a stateful design session (see below)
//	POST /v1/session/{id}/delta  apply edits / roll back, re-evaluate warm
//	GET  /v1/session/{id}     session state (rev, key); DELETE closes it
//	GET  /v1/healthz liveness (503 while draining)
//	GET  /v1/statsz  counters, cache and admission state, session counts
//
// Three service properties hold regardless of the engine underneath:
//
//   - Content-addressed caching. Every result body is keyed by a
//     canonical hash of (spec, technology, library, scheme, knobs); a
//     warm hit replays the exact bytes of the cold run, and concurrent
//     identical requests collapse onto one execution (singleflight).
//     Soundness rests on the engine's bit-identical determinism.
//   - Admission control. A bounded gate (par.Gate) caps concurrent
//     runs and the wait line; beyond that the server refuses with 429
//     and Retry-After rather than queueing unboundedly. Every request
//     runs under a deadline.
//   - Graceful drain. Drain stops admission (503 + Retry-After),
//     lets in-flight requests finish, and then returns, so SIGTERM
//     never truncates a run.
//
// Sessions are the exception to statelessness: POST /v1/session builds
// one tree, keeps it live with a dirty-region STA engine, and applies
// serialized edit deltas in microseconds. The Result field of every
// session response is still content-addressed — byte-identical to a
// cold /v1/flow of the equivalently edited request (the session-replay
// differential suite enforces this) — so only the session envelope
// (IDs, rev counters) is stateful. The store evicts idle sessions by
// TTL and least-recently-used ones under memory pressure; clients
// re-hydrate by re-creating with their last edit state, landing on the
// same content addresses.
//
// Responses carry no volatile fields — cache outcome (hit|miss|shared)
// travels in the X-Cache header and on the request's span tree, which
// is tagged with the canonical key, cache outcome, and status. The
// wall clock is used only for operational metadata (deadlines,
// Retry-After, uptime); result bytes never depend on it. See
// docs/service.md.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartndr/internal/core"
	"smartndr/internal/obs"
	"smartndr/internal/par"
)

// Config parameterizes a Server. The zero value serves with defaults
// sized for one machine.
type Config struct {
	// Runner executes requests; nil selects the production FlowRunner.
	Runner Runner
	// MaxConcurrent caps requests executing at once (default: all
	// cores). Cache hits bypass the gate — they are pure lookups.
	MaxConcurrent int
	// QueueDepth caps requests waiting for a slot before the server
	// refuses with 429 (default: 2×MaxConcurrent).
	QueueDepth int
	// RequestTimeout is the per-request deadline; a request's
	// timeout_ms may shorten but never extend it (default 120s).
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 refusals (default 1s,
	// rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// Workers bounds per-request sweep fan-out for the default runner
	// (0 = all cores).
	Workers int
	// MaxBodyBytes caps request bodies; oversize requests are refused
	// with 413 before any decoding (default 1 MiB). Large inline specs
	// — e.g. hierarchical runs described sink-by-sink — may need more;
	// the daemon exposes this as -max-spec-bytes.
	MaxBodyBytes int64
	// Tracer, when non-nil, records one span tree per request plus
	// service counters. Each request gets a scoped view, so concurrent
	// requests never interleave their span nesting.
	Tracer *obs.Tracer
	// SpanObs, when non-nil, contributes its per-span-path latency
	// histograms to /metricsz. Wire the same observer into the Tracer's
	// sink chain (obs.NewSpanObserver) so every engine phase the tracer
	// sees lands in a distribution.
	SpanObs *obs.SpanObserver
	// TracezCapacity bounds the /v1/tracez buffer of recent request
	// span trees: half holds the slowest requests seen, half a ring of
	// the most recent. 0 disables the endpoint.
	TracezCapacity int
	// SessionTTL is the idle lifetime of a design session; each use
	// resets the clock (default 15m). Requests may shorten their own
	// session's TTL via ttl_ms but never extend past this.
	SessionTTL time.Duration
	// MaxSessions caps live sessions; the least recently used is
	// evicted to admit a new one (default 64).
	MaxSessions int
	// SessionMaxBytes soft-caps the summed memory estimate of live
	// sessions (default 256 MiB); LRU eviction keeps the total under it.
	SessionMaxBytes int64
	// Now overrides the clock (tests). Nil uses the real clock.
	Now func() time.Time
}

// Request-latency outcome classes, one histogram per endpoint × class
// (see the serve.<endpoint>_<class>_seconds registry names).
const (
	latCold    = "cold"    // executed the engine (cache miss, 200)
	latHit     = "hit"     // served from cache or a shared flight (200)
	latRefused = "refused" // shed: saturated (429) or draining/canceled (503)
	latError   = "error"   // everything else (4xx/5xx, timeouts)
)

// Endpoint names for the run endpoints (span names are serve.<name>).
const (
	epFlow  = "flow"
	epSweep = "sweep"
	epBatch = "batch"
)

// Server is the flow service. Create with New, expose via Handler, and
// stop with Drain.
type Server struct {
	runner     Runner
	gate       *par.Gate
	cache      *Cache
	mux        *http.ServeMux
	tr         *obs.Tracer
	reg        *obs.Registry
	spanObs    *obs.SpanObserver
	tracez     *TraceBuffer
	lat        map[string]map[string]*obs.Histogram // endpoint → class → histogram
	sessions   *sessionStore
	maxBody    int64
	timeout    time.Duration
	retryAfter time.Duration
	now        func() time.Time
	start      time.Time
	reqID      atomic.Int64

	stateMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // open while draining with requests in flight
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxConcurrent
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 120 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = defaultSessionTTL
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = defaultMaxSessions
	}
	if cfg.SessionMaxBytes <= 0 {
		cfg.SessionMaxBytes = defaultSessionMaxBytes
	}
	if cfg.Runner == nil {
		cfg.Runner = &FlowRunner{Workers: cfg.Workers}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Tracer.Registry()
	if reg == nil {
		// Counters stay useful (statsz) even when tracing is off.
		reg = &obs.Registry{}
	}
	s := &Server{
		runner:     cfg.Runner,
		gate:       par.NewGate(cfg.MaxConcurrent, cfg.QueueDepth),
		tr:         cfg.Tracer,
		reg:        reg,
		maxBody:    cfg.MaxBodyBytes,
		timeout:    cfg.RequestTimeout,
		retryAfter: cfg.RetryAfter,
		now:        now,
	}
	s.start = s.now()
	s.cache = NewCache(cfg.CacheEntries, s.reg)
	s.sessions = newSessionStore(cfg.SessionTTL, cfg.MaxSessions, cfg.SessionMaxBytes, s.now, s.reg)
	s.spanObs = cfg.SpanObs
	if cfg.TracezCapacity > 0 {
		s.tracez = NewTraceBuffer(cfg.TracezCapacity)
	}
	// One latency histogram per endpoint × outcome class, registered up
	// front under constant names so the metric namespace is statically
	// enumerable (the metricname analyzer enforces the convention) and
	// all series exist from the first scrape.
	s.lat = map[string]map[string]*obs.Histogram{
		epFlow: {
			latCold:    reg.Histogram("serve.flow_cold_seconds"),
			latHit:     reg.Histogram("serve.flow_hit_seconds"),
			latRefused: reg.Histogram("serve.flow_refused_seconds"),
			latError:   reg.Histogram("serve.flow_error_seconds"),
		},
		epSweep: {
			latCold:    reg.Histogram("serve.sweep_cold_seconds"),
			latHit:     reg.Histogram("serve.sweep_hit_seconds"),
			latRefused: reg.Histogram("serve.sweep_refused_seconds"),
			latError:   reg.Histogram("serve.sweep_error_seconds"),
		},
		epBatch: {
			latCold:    reg.Histogram("serve.batch_cold_seconds"),
			latHit:     reg.Histogram("serve.batch_hit_seconds"),
			latRefused: reg.Histogram("serve.batch_refused_seconds"),
			latError:   reg.Histogram("serve.batch_error_seconds"),
		},
		epSessionCreate: {
			latCold:    reg.Histogram("serve.session_create_cold_seconds"),
			latHit:     reg.Histogram("serve.session_create_hit_seconds"),
			latRefused: reg.Histogram("serve.session_create_refused_seconds"),
			latError:   reg.Histogram("serve.session_create_error_seconds"),
		},
		epSessionDelta: {
			latCold:    reg.Histogram("serve.session_delta_cold_seconds"),
			latHit:     reg.Histogram("serve.session_delta_hit_seconds"),
			latRefused: reg.Histogram("serve.session_delta_refused_seconds"),
			latError:   reg.Histogram("serve.session_delta_error_seconds"),
		},
		epSessionRead: {
			latCold:    reg.Histogram("serve.session_read_cold_seconds"),
			latHit:     reg.Histogram("serve.session_read_hit_seconds"),
			latRefused: reg.Histogram("serve.session_read_refused_seconds"),
			latError:   reg.Histogram("serve.session_read_error_seconds"),
		},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/flow", s.endpoint(http.MethodPost, epFlow, s.flow))
	s.mux.HandleFunc("/v1/sweep", s.endpoint(http.MethodPost, epSweep, s.sweep))
	s.mux.HandleFunc("/v1/batch", s.endpoint(http.MethodPost, epBatch, s.batch))
	s.mux.HandleFunc("/v1/session", s.endpoint(http.MethodPost, epSessionCreate, s.sessionCreate))
	s.mux.HandleFunc("/v1/session/{id}/delta", s.endpoint(http.MethodPost, epSessionDelta, s.sessionDelta))
	readSession := s.endpoint(http.MethodGet, epSessionRead, s.sessionRead)
	s.mux.HandleFunc("/v1/session/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			s.closeSession(w, r)
			return
		}
		readSession(w, r)
	})
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/statsz", s.handleStatsz)
	s.mux.HandleFunc("/v1/tracez", s.handleTracez)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (tests and statsz).
func (s *Server) Cache() *Cache { return s.cache }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.draining
}

// admit registers a request unless the server is draining.
func (s *Server) admit() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// depart retires an admitted request, releasing Drain when the last
// one finishes.
func (s *Server) depart() {
	s.stateMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.stateMu.Unlock()
}

// Drain stops admitting work and waits for in-flight requests to
// finish (or ctx to end). After Drain begins, /v1/flow and /v1/sweep
// refuse with 503 + Retry-After and /v1/healthz reports 503, so load
// balancers stop routing here while the tail completes. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.stateMu.Lock()
	s.draining = true
	if s.inflight > 0 && s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.stateMu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests in flight: %w", ctx.Err())
	}
}

// reply is an endpoint's successful answer: the body bytes plus the
// content key and cache outcome (hit|miss|shared; "" for uncached
// session work) the envelope stamps on the X-Key and X-Cache headers,
// the request span, the latency histogram, and the tracez record. Work
// keeps key and cache on failure too, so a failed request's trace still
// names its key.
type reply struct {
	key, cache string
	body       []byte
}

// work is one endpoint's decode-and-work part. It runs inside the
// envelope on the size-capped request body, under the open request span
// sp and the request-scoped tracer rtr, and either replies or returns an
// error for statusOf.
type work func(r *http.Request, body []byte, sp *obs.Span, rtr *obs.Tracer) (reply, error)

// endpoint wraps work in the one request envelope every request endpoint
// shares: method check, admission against drain, the request span under
// a scoped tracer, the bounded body read, the response, and — whatever
// the outcome — the per-endpoint/per-class latency histogram and the
// tracez record.
func (s *Server) endpoint(method, name string, do work) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := s.now()
		var (
			reqID  int64
			status int
			rep    reply
			col    *obs.Collector
		)
		// Registered first so it runs last — after the request span has
		// ended and its event has landed in col.
		defer func() {
			d := s.now().Sub(t0)
			class := latencyClass(status, rep.cache)
			s.lat[name][class].Observe(d.Seconds())
			if s.tracez != nil {
				var evs []obs.SpanEvent
				if col != nil {
					evs = col.Events()
				}
				s.tracez.Add(TraceRecord{
					Req: reqID, Endpoint: name, Key: rep.key, Outcome: class,
					Cache: rep.cache, Status: status, DurNS: d.Nanoseconds(),
					Spans: buildSpanTree(evs),
				})
			}
		}()

		if r.Method != method {
			status = s.fail(w, nil, errMethod(r, method))
			return
		}
		if !s.admit() {
			status = http.StatusServiceUnavailable
			s.refuse(w, nil, status, "draining")
			return
		}
		defer s.depart()
		s.reg.Add("serve.requests", 1)

		reqID = s.reqID.Add(1)
		rtr := s.tr.Scoped()
		if s.tracez != nil && s.tr.Enabled() {
			col = obs.NewCollector()
			rtr = s.tr.ScopedTee(col)
		}
		sp := rtr.Start("serve."+name, obs.I("req", int(reqID)))
		defer sp.End()

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			err = &StatusError{Code: http.StatusRequestEntityTooLarge,
				Err: fmt.Errorf("serve: request body exceeds %d bytes", tooLarge.Limit)}
		case err != nil:
			err = badRequest(fmt.Errorf("serve: reading body: %w", err))
		default:
			rep, err = do(r, body, sp, rtr)
		}
		if rep.key != "" {
			sp.Set(obs.S("key", rep.key))
		}
		if rep.cache != "" {
			sp.Set(obs.S("cache", rep.cache))
		}
		if err != nil {
			status = s.fail(w, sp, err)
			return
		}
		status = http.StatusOK
		sp.Set(obs.I("status", status))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", rep.cache)
		w.Header().Set("X-Key", rep.key)
		w.WriteHeader(status)
		_, _ = w.Write(rep.body)
	}
}

// requestContext bounds one request's work by its deadline: timeout_ms
// may shorten the server's bound, never extend it.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.timeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < d {
		d = t
	}
	return context.WithTimeout(r.Context(), d)
}

// runCached serves one content-addressed result: a hit or a shared
// flight replays the cached bytes; a miss owns the execution, and only
// then takes an admission slot, so hits and followers never consume
// one.
func (s *Server) runCached(ctx context.Context, key string, run func(context.Context) (any, error)) ([]byte, string, error) {
	return s.cache.Do(ctx, key, func() ([]byte, error) {
		release, err := s.gate.Acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		out, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	})
}

// flow serves POST /v1/flow.
func (s *Server) flow(r *http.Request, body []byte, _ *obs.Span, rtr *obs.Tracer) (reply, error) {
	req, err := DecodeFlowRequest(body)
	if err != nil {
		return reply{}, badRequest(err)
	}
	key, err := s.runner.FlowKey(req)
	if err != nil {
		return reply{}, badRequest(err)
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	out, outcome, err := s.runCached(ctx, key, func(ctx context.Context) (any, error) {
		return s.runner.RunFlow(ctx, req, rtr)
	})
	return reply{key: key, cache: outcome, body: out}, err
}

// sweep serves POST /v1/sweep.
func (s *Server) sweep(r *http.Request, body []byte, _ *obs.Span, rtr *obs.Tracer) (reply, error) {
	req, err := DecodeSweepRequest(body)
	if err != nil {
		return reply{}, badRequest(err)
	}
	key, err := s.runner.SweepKey(req)
	if err != nil {
		return reply{}, badRequest(err)
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	out, outcome, err := s.runCached(ctx, key, func(ctx context.Context) (any, error) {
		return s.runner.RunSweep(ctx, req, rtr)
	})
	return reply{key: key, cache: outcome, body: out}, err
}

// latencyClass maps a finished request onto its histogram class.
func latencyClass(status int, cacheOutcome string) string {
	switch {
	case status == http.StatusOK &&
		(cacheOutcome == CacheHit || cacheOutcome == CacheShared):
		return latHit
	case status == http.StatusOK:
		return latCold
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return latRefused
	default:
		return latError
	}
}

// handleHealthz serves GET /v1/healthz: 200 while serving, 503 while
// draining (so orchestration stops routing before shutdown).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, nil, errMethod(r, http.MethodGet))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// Statsz is the /v1/statsz body: a point-in-time operational snapshot.
type Statsz struct {
	UptimeMS int64 `json:"uptime_ms"`
	Draining bool  `json:"draining"`
	InFlight int   `json:"in_flight"`
	Waiting  int   `json:"waiting"`
	Slots    int   `json:"slots"`
	CacheLen int   `json:"cache_len"`
	CacheCap int   `json:"cache_cap"`
	// Shards is the cluster backend view, present when the runner
	// routes across a fleet (see ShardStatser).
	Shards []ShardStat `json:"shards,omitempty"`
	// Sessions is the design-session store: live count and memory
	// footprint against their budgets.
	Sessions SessionStats              `json:"sessions"`
	Counters map[string]float64        `json:"counters,omitempty"`
	Latency  map[string]LatencySummary `json:"latency,omitempty"`
}

// LatencySummary is the statsz view of one request-latency histogram:
// count plus interpolated percentiles, in milliseconds. The same
// histograms back the /metricsz exposition, so the two endpoints can
// never disagree.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// latencySummaries derives the non-empty "endpoint.class" summaries
// from the request histograms.
func (s *Server) latencySummaries() map[string]LatencySummary {
	out := map[string]LatencySummary{}
	for endpoint, classes := range s.lat { //lint:commutative summaries land under distinct keys
		for class, h := range classes { //lint:commutative summaries land under distinct keys
			snap := h.Snapshot()
			if snap.Count == 0 {
				continue
			}
			out[endpoint+"."+class] = LatencySummary{
				Count: snap.Count,
				P50MS: snap.Quantile(0.50) * 1e3,
				P95MS: snap.Quantile(0.95) * 1e3,
				P99MS: snap.Quantile(0.99) * 1e3,
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// handleStatsz serves GET /v1/statsz.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, nil, errMethod(r, http.MethodGet))
		return
	}
	st := Statsz{
		UptimeMS: s.now().Sub(s.start).Milliseconds(),
		Draining: s.Draining(),
		InFlight: s.gate.Held(),
		Waiting:  s.gate.Waiting(),
		Slots:    s.gate.Slots(),
		CacheLen: s.cache.Len(),
		CacheCap: s.cache.Cap(),
		Sessions: s.sessions.stats(),
		Counters: s.reg.Snapshot(),
		Latency:  s.latencySummaries(),
	}
	if ss, ok := s.runner.(ShardStatser); ok {
		st.Shards = ss.ShardStats()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// refuse writes a retryable refusal (429 saturated / 503 draining)
// with a Retry-After hint.
func (s *Server) refuse(w http.ResponseWriter, sp *obs.Span, status int, reason string) {
	sp.Set(obs.I("status", status))
	sp.Set(obs.S("refused", reason))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: "serve: " + reason + ", retry later"})
}

// StatusError attaches an HTTP status to an error. statusOf honors it
// ahead of every other rule, so work that knows its answer — 404 for an
// unknown session, 400 for an undecodable body — says so where it
// fails, and a cluster frontend relays a worker's status unchanged.
type StatusError struct {
	Code int
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// badRequest marks err as the client's fault.
func badRequest(err error) error {
	return &StatusError{Code: http.StatusBadRequest, Err: err}
}

// errMethod is the 405 for a request made with the wrong method.
func errMethod(r *http.Request, method string) error {
	return &StatusError{Code: http.StatusMethodNotAllowed,
		Err: fmt.Errorf("serve: %s needs %s", r.URL.Path, method)}
}

// statusOf is the service's one error-to-status policy, shared by every
// endpoint and every batch item: an explicit StatusError wins; then
// saturation (429), an expired deadline (504), cancellation (503), and
// an invalid edit (400 — the client's fault, whichever endpoint carried
// it). Anything else is the server's (500).
func statusOf(err error) int {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, par.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrEdit):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// tally counts one failed request or batch item: a saturation refusal
// under serve.saturated, anything else under serve.errors — and a
// timeout under serve.timeouts as well.
func (s *Server) tally(status int) {
	switch status {
	case http.StatusTooManyRequests:
		s.reg.Add("serve.saturated", 1)
		return
	case http.StatusGatewayTimeout:
		s.reg.Add("serve.timeouts", 1)
	}
	s.reg.Add("serve.errors", 1)
}

// fail answers a failed request with statusOf(err), tallies it, and
// returns the status. Saturation is a retryable refusal.
func (s *Server) fail(w http.ResponseWriter, sp *obs.Span, err error) int {
	status := statusOf(err)
	s.tally(status)
	if status == http.StatusTooManyRequests {
		s.refuse(w, sp, status, "saturated")
		return status
	}
	sp.Set(obs.I("status", status))
	sp.Set(obs.S("error", err.Error()))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
	return status
}

// retryAfterSeconds renders the Retry-After hint. A refused client
// should come back when a slot has likely opened, and a slot opens
// when a cold run finishes — so the hint tracks the recent cold p95
// rather than a static guess: a service running 100 ms flows tells
// clients "1", one grinding through 40 s hierarchical builds tells
// them "40". Before any cold run has completed, the configured
// RetryAfter is used. Whole seconds, rounded up, min 1 — Retry-After's
// wire grammar has no sub-second form.
func (s *Server) retryAfterSeconds() string {
	d := s.retryAfter
	if p95 := s.coldP95(); p95 > 0 {
		d = time.Duration(p95 * float64(time.Second))
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// coldP95 returns the slowest cold-class p95 across endpoints, in
// seconds (0 when no cold request has finished). Taking the max keeps
// the hint honest for mixed workloads: backing off long enough for the
// slowest endpoint never thrashes the fast one.
func (s *Server) coldP95() float64 {
	best := 0.0
	for _, classes := range s.lat { //lint:commutative max is order-independent
		h := classes[latCold]
		if h == nil {
			continue
		}
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		if q := snap.Quantile(0.95); q > best {
			best = q
		}
	}
	return best
}
