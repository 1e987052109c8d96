// Command smartndrd serves the smartndr flow over HTTP/JSON: a
// long-running daemon that synthesizes and evaluates clock trees on
// demand, with content-addressed result caching, bounded admission, and
// graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	smartndrd -addr :8147
//	smartndrd -addr localhost:8147 -max-concurrent 4 -queue-depth 8
//	smartndrd -trace spans.jsonl -request-timeout 30s
//
// One binary serves every node in a fleet, and -backends decides its
// role. Without it the node is a single node, or a worker when a
// frontend addresses it: it serves the engine directly. With it the
// node is a frontend that routes across the listed backends:
// consistent-hash cache shards, per-backend admission gates, hedged
// retries on stragglers, periodic health probes.
//
//	smartndrd -addr :8148
//	smartndrd -addr :8149
//	smartndrd -addr :8147 \
//	    -backends http://localhost:8148,http://localhost:8149
//
// Endpoints (see docs/service.md and docs/observability.md):
//
//	POST /v1/flow     run one benchmark through one scheme
//	POST /v1/sweep    scheme×corner arm batch on one shared tree
//	POST /v1/batch    many flow requests in one round trip
//	POST /v1/session  open a stateful design session (edit + re-evaluate)
//	POST /v1/session/{id}/delta  apply edits or roll back, warm
//	GET  /v1/session/{id}        session state; DELETE closes it
//	GET  /v1/healthz  liveness (503 while draining)
//	GET  /v1/statsz   counters, latency percentiles, cache, admission
//	                  (and, on a frontend, shards)
//	GET  /v1/tracez   slowest + most recent request span trees
//	GET  /metricsz    Prometheus text exposition (counters, gauges, histograms)
//
// Telemetry is on by default: -metrics wires a span observer into the
// tracer chain so every request and engine phase lands in a latency
// histogram, and -tracez-capacity bounds the /v1/tracez buffer
// (0 disables the endpoint). -pprof serves net/http/pprof on a
// separate address. On SIGTERM or SIGINT the daemon stops admitting
// work (new requests get 503 + Retry-After), lets in-flight requests
// finish up to -drain-timeout, then exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smartndr/internal/cluster"
	"smartndr/internal/obs"
	"smartndr/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "smartndrd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body. ready, when non-nil, receives the
// bound listen address once the server is accepting connections; stop,
// when non-nil, triggers shutdown like a signal would (tests use it
// instead of delivering real signals).
func run(args []string, stderr io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("smartndrd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8147", "listen address")
	maxConc := fs.Int("max-concurrent", 0, "max requests executing at once (0 = all cores)")
	queueDepth := fs.Int("queue-depth", 0, "max requests waiting for a slot before 429 (0 = 2×max-concurrent)")
	reqTimeout := fs.Duration("request-timeout", 120*time.Second, "per-request deadline ceiling")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 refusals")
	cacheEntries := fs.Int("cache-entries", 256, "result-cache capacity (entries)")
	workers := fs.Int("workers", 0, "sweep-arm fan-out bound (0 = all cores; results identical at any count)")
	maxSpecBytes := fs.Int64("max-spec-bytes", 0, "request-body size cap; oversize requests get 413 (0 = 1 MiB default)")
	traceFile := fs.String("trace", "", "write span events as JSON lines to this file")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	metrics := fs.Bool("metrics", true, "aggregate span latencies into /metricsz histograms")
	tracezCap := fs.Int("tracez-capacity", 64, "request span trees retained for /v1/tracez (0 disables)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	backends := fs.String("backends", "", "route across these backends as a frontend: comma-separated [name=]url ('loopback' = in-process)")
	backendConc := fs.Int("backend-concurrent", 0, "frontend: max in-flight calls per backend (0 = default 4)")
	hedgeAfter := fs.Duration("hedge-after", 0, "frontend: fixed hedge delay (0 = adaptive recent p95)")
	noHedge := fs.Bool("no-hedge", false, "frontend: disable hedged retries")
	probeEvery := fs.Duration("probe-interval", 5*time.Second, "frontend: backend health-probe period (0 disables)")
	sessionTTL := fs.Duration("session-ttl", 15*time.Minute, "idle lifetime of a design session (refreshed on use)")
	maxSessions := fs.Int("max-sessions", 64, "live design sessions before LRU eviction")
	sessionMaxBytes := fs.Int64("session-max-bytes", 256<<20, "soft memory budget for live sessions (bytes)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	startPprof(*pprofAddr, stderr)

	// The sink chain: an optional JSONL file sink, wrapped (when -metrics
	// is on) by a SpanObserver that folds every completed span into a
	// per-path latency histogram on the way through. The observer must be
	// the tracer's direct sink so it sees all spans, including ones from
	// request-scoped tracers.
	var (
		tracer  *obs.Tracer
		spanObs *obs.SpanObserver
		sink    obs.Sink
		f       *os.File
	)
	if *traceFile != "" {
		var err error
		if f, err = os.Create(*traceFile); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		sink = obs.NewJSONL(f)
	}
	if *metrics {
		spanObs = obs.NewSpanObserver(sink)
		sink = spanObs
	}
	if sink != nil {
		tracer = obs.New(sink)
	}
	closeTrace := func() error {
		var err error
		if tracer != nil {
			err = tracer.Close()
		}
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}

	// A node serves the engine directly; only a frontend routes through
	// the cluster runner, across the configured shard set.
	runner := serve.Runner(&serve.FlowRunner{Workers: *workers})
	var fleet *cluster.Runner
	if *backends != "" {
		specs, err := parseBackends(*backends)
		if err != nil {
			closeTrace()
			return err
		}
		fleet, err = cluster.NewRunner(cluster.Config{
			Local:             runner,
			Backends:          specs,
			BackendConcurrent: *backendConc,
			HedgeAfter:        *hedgeAfter,
			DisableHedge:      *noHedge,
			Tracer:            tracer,
		})
		if err != nil {
			closeTrace()
			return err
		}
		runner = fleet
	}

	srv := serve.New(serve.Config{
		Runner:          runner,
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		RequestTimeout:  *reqTimeout,
		RetryAfter:      *retryAfter,
		CacheEntries:    *cacheEntries,
		Workers:         *workers,
		MaxBodyBytes:    *maxSpecBytes,
		Tracer:          tracer,
		SpanObs:         spanObs,
		TracezCapacity:  *tracezCap,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		SessionMaxBytes: *sessionMaxBytes,
	})

	// Frontends keep membership fresh: a probe loop marks dead backends
	// down (routing and hedging skip them) and recovers them when they
	// answer again.
	probeDone := make(chan struct{})
	if fleet != nil && *probeEvery > 0 {
		ticker := time.NewTicker(*probeEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-probeDone:
					return
				case <-ticker.C:
					ctx, cancel := context.WithTimeout(context.Background(), *probeEvery)
					fleet.Probe(ctx)
					cancel()
				}
			}
		}()
	}
	defer close(probeDone)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "smartndrd: serving on %s\n", ln.Addr())
	if fleet != nil {
		fmt.Fprintf(stderr, "smartndrd: routing across %d backends\n", fleet.Ring().Backends())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		closeTrace()
		return fmt.Errorf("serve: %w", err)
	case s := <-sig:
		fmt.Fprintf(stderr, "smartndrd: %v, draining\n", s)
	case <-stop:
		fmt.Fprintln(stderr, "smartndrd: stop requested, draining")
	}

	// Stop admitting work and let the in-flight tail finish, then close
	// the listener and connections.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if drainErr != nil {
		fmt.Fprintf(stderr, "smartndrd: %v\n", drainErr)
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), time.Second)
	defer cancelShut()
	httpSrv.Shutdown(shutCtx)
	if err := closeTrace(); err != nil {
		fmt.Fprintln(stderr, "smartndrd: trace:", err)
	}
	return drainErr
}

// parseBackends resolves a frontend's -backends list into backend
// specs. Each entry is [name=]url, where the url "loopback" selects the
// in-process backend (a frontend can serve a shard of the keyspace
// itself).
func parseBackends(list string) ([]cluster.BackendSpec, error) {
	var specs []cluster.BackendSpec
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var spec cluster.BackendSpec
		if name, url, ok := strings.Cut(entry, "="); ok {
			spec = cluster.BackendSpec{Name: name, URL: url}
		} else {
			spec = cluster.BackendSpec{URL: entry}
		}
		if spec.URL == "loopback" {
			spec.URL = ""
			if spec.Name == "" {
				spec.Name = "loopback"
			}
		} else if !strings.HasPrefix(spec.URL, "http://") && !strings.HasPrefix(spec.URL, "https://") {
			// Catch misconfiguration at startup, not as a permanently
			// flapping shard at serve time: a bare token like "self" would
			// otherwise become an HTTP backend with a scheme-less base URL
			// that fails every call.
			return nil, fmt.Errorf("backend %q: URL %q is not absolute (want http(s)://host:port, or \"loopback\")", entry, spec.URL)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-backends has no entries")
	}
	return specs, nil
}

// startPprof serves net/http/pprof on addr when non-empty, on its own
// listener so profiling never shares a port with the service mux.
func startPprof(addr string, stderr io.Writer) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "smartndrd: pprof:", err)
		}
	}()
	fmt.Fprintf(stderr, "smartndrd: pprof on http://%s/debug/pprof/\n", addr)
}
