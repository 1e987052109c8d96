package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"smartndr"
	"smartndr/internal/cluster"
	"smartndr/internal/core"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/hier"
	"smartndr/internal/obs"
	"smartndr/internal/serve"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/workload"
)

// The traced run replays a workload's inputs in-process and times calls
// into each layer's public functions. Each call is one span: name, start,
// end, parent and request id. A span's children are the calls into the
// layer below that do the same work on the same input, replayed one
// after another, so a span's self time (its duration minus its
// children's) is the time that layer adds on top of them. Spans live in
// memory and are written to a file when the run ends.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Aside  bool   `json:"aside,omitempty"` // set-up work or a coverage probe, not the workload's operations
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

type recorder struct {
	t0    time.Time
	spans []span
	aside bool // tag new spans as aside
	off   bool // time nothing (the overhead baseline)
	// settle collects garbage before each call, so engine-scale calls
	// replayed back to back each start from the same heap state instead
	// of paying for the previous call's garbage at random points.
	settle bool
}

// open starts a span that close ends.
func (r *recorder) open(req, parent int, name string) int {
	if r.off {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Aside: r.aside, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) close(id int) {
	if id > 0 {
		r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
	}
}

// call runs fn as one span.
func (r *recorder) call(req, parent int, name string, fn func() error) (int, error) {
	if r.settle {
		runtime.GC()
	}
	id := r.open(req, parent, name)
	err := fn()
	r.close(id)
	return id, err
}

// allocRow is one exact allocation count from the single-goroutine pass.
type allocRow struct {
	allocs uint64
	bytes  uint64
}

// allocs counts the heap allocations fn makes. The replay runs on one
// goroutine with nothing else allocating, so the count is exact.
func allocs(fn func() error) (uint64, uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// replayer carries one traced replay.
type replayer struct {
	ctx    context.Context
	seed   int64
	e2e    *e2eResult
	rec    *recorder
	req    int
	te     *tech.Tech
	lib    *smartndr.Library
	inSlew float64

	wired, bare *serve.Server // like the daemon; without its telemetry
	fr          *serve.FlowRunner
	cl          *cluster.Runner

	allocs    map[string][]allocRow
	vals      map[string]float64
	attempted int
	problems  []string
	failed    int
}

// newDaemonLikeServer wires a server the way cmd/smartndrd does with
// default flags: a standalone cluster runner over a FlowRunner and, with
// telemetry, a tracer whose sink is a SpanObserver plus the tracez
// buffer.
func newDaemonLikeServer(telemetry bool) (*serve.Server, error) {
	var (
		tracer  *obs.Tracer
		spanObs *obs.SpanObserver
		tracez  int
	)
	if telemetry {
		spanObs = obs.NewSpanObserver(nil)
		tracer = obs.New(spanObs)
		tracez = 64
	}
	runner, err := cluster.NewRunner(cluster.Config{Local: &serve.FlowRunner{}, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Config{
		Runner:          runner,
		RequestTimeout:  120 * time.Second,
		RetryAfter:      time.Second,
		CacheEntries:    256,
		Tracer:          tracer,
		SpanObs:         spanObs,
		TracezCapacity:  tracez,
		SessionTTL:      15 * time.Minute,
		MaxSessions:     64,
		SessionMaxBytes: 256 << 20,
	}), nil
}

func newReplayer(ctx context.Context, seed int64, e2e *e2eResult) (*replayer, error) {
	wired, err := newDaemonLikeServer(true)
	if err != nil {
		return nil, err
	}
	bare, err := newDaemonLikeServer(false)
	if err != nil {
		return nil, err
	}
	fr := &serve.FlowRunner{}
	cl, err := cluster.NewRunner(cluster.Config{Local: fr})
	if err != nil {
		return nil, err
	}
	te := tech.Tech45()
	return &replayer{
		ctx: ctx, seed: seed, e2e: e2e,
		rec: &recorder{t0: time.Now()},
		te:  te, lib: smartndr.DefaultLibraryFor(te), inSlew: 40e-12,
		wired: wired, bare: bare, fr: fr, cl: cl,
		allocs: map[string][]allocRow{}, vals: map[string]float64{},
	}, nil
}

func (r *replayer) nextReq() int { r.req++; return r.req }

func (r *replayer) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 8 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

func (r *replayer) alloc(name string, fn func() error) error {
	n, b, err := allocs(fn)
	r.allocs[name] = append(r.allocs[name], allocRow{n, b})
	return err
}

// serveHTTP runs one request through a server's handler in memory.
func serveHTTP(s *serve.Server, method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, rd))
	if w.Code != http.StatusOK {
		return w, fmt.Errorf("%s %s: status %d: %s", method, path, w.Code, truncate(w.Body.Bytes()))
	}
	return w, nil
}

// flowProbe is what one layer-by-layer flow replay learned.
type flowProbe struct {
	stats   *core.Stats
	nodes   int
	buffers int
	sinks   int
	regions int
	metrics core.Metrics
	body    []byte // the handler's reply
	qor     [32]byte
}

// probeFlow replays one cold /v1/flow request layer by layer:
//
//	serve.handler.flow            the daemon-wired handler, in memory
//	  serve.decode, serve.key, serve.encode
//	  smartndr.run                Flow.RunSpecEdits
//	    workload.generate, cts.build (hier.build), core.optimize, core.evaluate
//
// The handler without telemetry is timed next to it for
// obs.telemetry_frac, and the routing layer by probeRoute.
func (r *replayer) probeFlow(req serve.FlowRequest) (flowProbe, error) {
	id := r.nextReq()
	body := flowBody(req)
	spec, err := requestSpec(req)
	if err != nil {
		return flowProbe{}, err
	}
	var pr flowProbe
	r.rec.settle = true
	defer func() { r.rec.settle = false }() // error returns
	op := r.rec.open(id, 0, "op")
	defer r.rec.close(op)
	var out []byte
	h, err := r.rec.call(id, op, "serve.handler.flow", func() error {
		w, err := serveHTTP(r.wired, http.MethodPost, "/v1/flow", body)
		out = w.Body.Bytes()
		return err
	})
	if err != nil {
		return pr, err
	}
	pr.body = out
	if pr.qor, err = qorHash(out); err != nil {
		return pr, err
	}
	if _, err := r.rec.call(id, op, "serve.handler_bare.flow", func() error {
		_, err := serveHTTP(r.bare, http.MethodPost, "/v1/flow", body)
		return err
	}); err != nil {
		return pr, err
	}
	if _, err := r.rec.call(id, h, "serve.decode", func() error {
		_, err := serve.DecodeFlowRequest(body)
		return err
	}); err != nil {
		return pr, err
	}
	var key string
	if _, err := r.rec.call(id, h, "serve.key", func() (err error) {
		key, err = r.fr.FlowKey(&req)
		return err
	}); err != nil {
		return pr, err
	}
	var resp *serve.FlowResponse
	flow := smartndr.NewFlow(&smartndr.FlowConfig{Tech: r.te, Library: r.lib,
		Hier: smartndr.HierConfig{MaxRegionSinks: req.MaxRegionSinks}})
	run, err := r.rec.call(id, h, "smartndr.run", func() error {
		built, res, err := flow.RunSpecEdits(r.ctx, spec, smartndr.SchemeSmart, nil)
		if err == nil {
			resp = &serve.FlowResponse{Key: key, Bench: spec.Name, Scheme: smartScheme, Tech: r.te.Name,
				Sinks: spec.Sinks, Buffers: built.Buffers, Clusters: built.NumClusters, Metrics: res.Metrics, Stats: res.Stats}
		}
		return err
	})
	if err != nil {
		return pr, err
	}
	var bm *workload.Benchmark
	if _, err := r.rec.call(id, run, "workload.generate", func() (err error) {
		bm, err = workload.GenerateP(spec, 0)
		return err
	}); err != nil {
		return pr, err
	}
	pr.sinks = len(bm.Sinks)
	var t *ctree.Tree
	if req.MaxRegionSinks > 0 {
		var hres *hier.Result
		if _, err := r.rec.call(id, run, "hier.build", func() (err error) {
			hres, err = hier.Build(r.ctx, bm.Sinks, bm.Src, r.te, r.lib, r.hierConfig(0))
			return err
		}); err != nil {
			return pr, err
		}
		t, pr.stats, pr.regions = hres.Tree, hres.Opt, hres.NumRegions
	} else {
		var cres *cts.Result
		if _, err := r.rec.call(id, run, "cts.build", func() (err error) {
			cres, err = cts.Build(bm.Sinks, bm.Src, r.te, r.lib, cts.Options{})
			return err
		}); err != nil {
			return pr, err
		}
		cres.Tree.SetAllRules(r.te.BlanketRule)
		t = cres.Tree.Clone()
		pr.nodes, pr.buffers = len(t.Nodes), t.BufferCount()
		if _, err := r.rec.call(id, run, "core.optimize", func() (err error) {
			pr.stats, err = core.Optimize(t, r.te, r.lib, core.Config{})
			return err
		}); err != nil {
			return pr, err
		}
	}
	if _, err := r.rec.call(id, run, "core.evaluate", func() (err error) {
		pr.metrics, _, err = core.EvaluateTr(t, r.te, r.lib, r.inSlew, nil)
		return err
	}); err != nil {
		return pr, err
	}
	if !reflect.DeepEqual(pr.metrics, resp.Metrics) {
		return pr, fmt.Errorf("%s: layer-by-layer replay metrics differ from the handler path", spec.Name)
	}
	var enc []byte
	if _, err := r.rec.call(id, h, "serve.encode", func() (err error) {
		enc, err = json.Marshal(resp)
		return err
	}); err != nil {
		return pr, err
	}
	if err := checkSame(enc, out, spec.Name+": facade response"); err != nil {
		return pr, err
	}
	r.rec.settle = false
	r.probeRoute(id, op, req)
	return pr, nil
}

// probeRoute times cluster.Runner.RunFlow and serve.FlowRunner.RunFlow on
// the same request with an expired context: both resolve the request and
// compute its key, then stop before the engine, so their difference is
// the routing layer alone. Next to a full engine run that difference
// would drown in the engine's own run-to-run noise of several ms. The
// fastest of routeReps tries of each is kept.
func (r *replayer) probeRoute(id, parent int, req serve.FlowRequest) {
	ctx, cancel := context.WithCancel(r.ctx)
	cancel()
	for i := 0; i < routeReps; i++ {
		r.rec.call(id, parent, "cluster.run_expired", func() error {
			_, err := r.cl.RunFlow(ctx, &req, nil)
			return err
		})
		r.rec.call(id, parent, "serve.run_expired", func() error {
			_, err := r.fr.RunFlow(ctx, &req, nil)
			return err
		})
	}
}

const routeReps = 5

func requestSpec(req serve.FlowRequest) (workload.Spec, error) {
	if req.Bench != "" {
		return workload.ByName(req.Bench)
	}
	return *req.Spec, nil
}

func (r *replayer) hierConfig(workers int) hier.Config {
	return hier.Config{MaxRegionSinks: hierRegionSinks, Smart: true, Workers: workers, InSlew: r.inSlew}
}

// allocFlow counts the allocations of one flat design's layers and of
// the whole facade and handler calls, on a fresh daemon-wired server so
// the handler misses the cache.
func (r *replayer) allocFlow(req serve.FlowRequest) error {
	spec, err := requestSpec(req)
	if err != nil {
		return err
	}
	srv, err := newDaemonLikeServer(true)
	if err != nil {
		return err
	}
	body := flowBody(req)
	if err := r.alloc("serve.handler.flow", func() error {
		_, err := serveHTTP(srv, http.MethodPost, "/v1/flow", body)
		return err
	}); err != nil {
		return err
	}
	flow := smartndr.NewFlow(&smartndr.FlowConfig{Tech: r.te, Library: r.lib})
	if err := r.alloc("smartndr.run", func() error {
		_, _, err := flow.RunSpecEdits(r.ctx, spec, smartndr.SchemeSmart, nil)
		return err
	}); err != nil {
		return err
	}
	var bm *workload.Benchmark
	if err := r.alloc("workload.generate", func() (err error) {
		bm, err = workload.GenerateP(spec, 1)
		return err
	}); err != nil {
		return err
	}
	var cres *cts.Result
	if err := r.alloc("cts.build", func() (err error) {
		cres, err = cts.Build(bm.Sinks, bm.Src, r.te, r.lib, cts.Options{})
		return err
	}); err != nil {
		return err
	}
	cres.Tree.SetAllRules(r.te.BlanketRule)
	t := cres.Tree.Clone()
	if err := r.alloc("core.optimize", func() error {
		_, err := core.Optimize(t, r.te, r.lib, core.Config{})
		return err
	}); err != nil {
		return err
	}
	return r.alloc("core.evaluate", func() error {
		_, _, err := core.EvaluateTr(t, r.te, r.lib, r.inSlew, nil)
		return err
	})
}

// probeCount is how many cold-flow requests the traced replay runs; each
// costs four engine runs.
const probeCount = 10

// probeRequest replays timed request i and checks its QoR against the
// daemon's reply to the same request.
func (r *replayer) probeRequest(i int, req serve.FlowRequest) (flowProbe, error) {
	pr, err := r.probeFlow(req)
	if err == nil {
		if want, ok := r.e2e.ph.qors[i]; ok && want != pr.qor {
			err = fmt.Errorf("request %d: in-memory handler QoR differs from the daemon's", i)
		}
	}
	r.check(err)
	return pr, err
}

func replayColdFlow(ctx context.Context, r *replayer) error {
	var probes []flowProbe
	for i := 0; i < probeCount; i++ {
		pr, err := r.probeRequest(i, specRequest(coldFlowSpec(r.seed, i), 0))
		if err != nil {
			return err
		}
		probes = append(probes, pr)
	}
	r.flowCounts(probes)
	for i := 0; i < 2; i++ {
		if err := r.allocFlow(specRequest(coldFlowSpec(r.seed, i), 0)); err != nil {
			return err
		}
	}
	r.rec.aside = true
	defer func() { r.rec.aside = false }()
	if err := r.coverSessions(specRequest(coldFlowSpec(r.seed, 0), 0), probes[0].body); err != nil {
		return err
	}
	return r.coverHier(coldFlowSpec(r.seed, 0))
}

// flowCounts records the layers' per-design counts, as medians.
func (r *replayer) flowCounts(probes []flowProbe) {
	var sinks, nodes, bufs, passes, down, up, rep, rec, wire, saved []float64
	for _, p := range probes {
		sinks = append(sinks, float64(p.sinks))
		nodes = append(nodes, float64(p.nodes))
		bufs = append(bufs, float64(p.buffers))
		if s := p.stats; s != nil {
			passes = append(passes, float64(s.Passes))
			down = append(down, float64(s.Downgrades))
			up = append(up, float64(s.Upgrades))
			rep = append(rep, float64(s.RepairRounds))
			rec = append(rec, float64(s.RecoverRounds))
			wire = append(wire, s.RepairWire/1000)
			saved = append(saved, (s.CapBefore-s.CapAfter)/s.CapBefore)
		}
	}
	r.vals["workload.sinks"] = median(sinks)
	if probes[0].regions == 0 {
		r.vals["cts.nodes"] = median(nodes)
		r.vals["cts.buffers"] = median(bufs)
	}
	r.vals["core.passes"] = median(passes)
	r.vals["core.downgrades"] = median(down)
	r.vals["core.upgrades"] = median(up)
	r.vals["core.repair_rounds"] = median(rep)
	r.vals["core.recover_rounds"] = median(rec)
	r.vals["core.repair_wire_mm"] = median(wire)
	r.vals["core.cap_saved_frac"] = median(saved)
}

func replayHier(ctx context.Context, r *replayer) error {
	req := specRequest(hierSpec(r.seed, 0), hierRegionSinks)
	pr, err := r.probeRequest(0, req)
	if err != nil {
		return err
	}
	r.flowCounts([]flowProbe{pr})
	r.vals["hier.regions"] = float64(pr.regions)
	// Serial build: the denominator of hier.par_speedup, and a
	// single-goroutine pass for the allocation count.
	bm, err := workload.GenerateP(*req.Spec, 1)
	if err != nil {
		return err
	}
	id := r.nextReq()
	if err := r.alloc("hier.build", func() error {
		_, err := r.rec.call(id, 0, "hier.build_serial", func() error {
			_, err := hier.Build(ctx, bm.Sinks, bm.Src, r.te, r.lib, r.hierConfig(1))
			return err
		})
		return err
	}); err != nil {
		return err
	}
	// Sessions on the hierarchical warm-up design, and the flat layers on
	// one region-sized design of the same density: what each region of a
	// 100K build costs.
	r.rec.aside = true
	defer func() { r.rec.aside = false }()
	warm := specRequest(hierWarmSpec(), hierRegionSinks)
	w, err := serveHTTP(r.wired, http.MethodPost, "/v1/flow", flowBody(warm))
	if err != nil {
		return err
	}
	if _, err := serveHTTP(r.bare, http.MethodPost, "/v1/flow", flowBody(warm)); err != nil {
		return err
	}
	if err := r.coverSessions(warm, w.Body.Bytes()); err != nil {
		return err
	}
	region := specRequest(workload.Scale("hier-region", hierRegionSinks, derive(r.seed, "hier-region", 0)), 0)
	rp, err := r.probeFlow(region)
	if err != nil {
		return err
	}
	r.vals["cts.nodes"], r.vals["cts.buffers"] = float64(rp.nodes), float64(rp.buffers)
	return r.allocFlow(region)
}

// twin is one session as the replay sees it: the session on both
// in-memory servers, the same session through the facade, and a
// layer-level copy (its own tree, ECO and dirty-region engine) fed the same
// states.
type twin struct {
	spec     workload.Spec
	req      serve.FlowRequest // the design's cold /v1/flow request
	pristine []byte            // its cold body
	sess     *smartndr.FlowSession
	tree     *ctree.Tree
	eco      *core.ECO
	eng      *sta.Incremental
	id       [2]string // session id on the wired and the bare server
	nodes    int
	live     []core.Edit
}

// openTwin opens a session on the design of req, which the wired server
// has already run cold (pristine is that body).
func (r *replayer) openTwin(req serve.FlowRequest, pristine []byte) (*twin, error) {
	spec, err := requestSpec(req)
	if err != nil {
		return nil, err
	}
	tw := &twin{spec: spec, req: req, pristine: pristine}
	id := r.nextReq()
	body := flowBody(req)
	for j, srv := range []*serve.Server{r.wired, r.bare} {
		name := []string{"serve.handler.session_open", "serve.handler_bare.session_open"}[j]
		if _, err := r.rec.call(id, 0, name, func() error {
			w, err := serveHTTP(srv, http.MethodPost, "/v1/session", body)
			if err != nil {
				return err
			}
			var sr serve.SessionResponse
			if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
				return err
			}
			tw.id[j], tw.nodes = sr.Session, sr.Nodes
			return nil
		}); err != nil {
			return nil, err
		}
	}
	flow := smartndr.NewFlow(&smartndr.FlowConfig{Tech: r.te, Library: r.lib,
		Hier: smartndr.HierConfig{MaxRegionSinks: req.MaxRegionSinks}})
	if _, err := r.rec.call(id, 0, "smartndr.open_session", func() (err error) {
		tw.sess, err = flow.OpenSession(r.ctx, spec, smartndr.SchemeSmart)
		return err
	}); err != nil {
		return nil, err
	}
	tw.tree = tw.sess.Result().Tree.Clone()
	if tw.eco, err = core.NewECO(tw.tree, r.te); err != nil {
		return nil, err
	}
	tw.eng = sta.NewIncremental(r.te, r.lib)
	if _, err := tw.eng.Analyze(tw.tree, r.inSlew); err != nil {
		return nil, err
	}
	return tw, nil
}

// opsReplay replays interactive operations and gathers the dirty-region
// engine's counters over them.
type opsReplay struct {
	twins  []*twin
	before []sta.IncStats
	visits []float64
}

func newOpsReplay(twins []*twin) *opsReplay {
	o := &opsReplay{twins: twins}
	for _, tw := range twins {
		o.before = append(o.before, tw.eng.Stats())
	}
	return o
}

// record stores the engine counters as sta.* metrics.
func (o *opsReplay) record(v map[string]float64) {
	var inc, total, fallbacks float64
	for k, tw := range o.twins {
		a, b := o.before[k], tw.eng.Stats()
		inc += float64(b.IncRuns - a.IncRuns)
		total += float64(b.IncRuns - a.IncRuns + b.FullRuns - a.FullRuns + b.CachedRuns - a.CachedRuns)
		fallbacks += float64(b.Fallbacks - a.Fallbacks)
	}
	v["sta.node_visits"] = median(o.visits)
	v["sta.inc_frac"] = inc / total
	v["sta.fallbacks"] = fallbacks
}

// replayOps is how many interactive operations the traced replay runs.
const replayOps = 600

func replayInteractive(ctx context.Context, r *replayer) error {
	// Set-up, as the daemon sees it: the pristine designs cold (these
	// are the cache hits later), and the sessions opened on both servers
	// and on the facade.
	r.rec.aside = true
	var probes []flowProbe
	var twins []*twin
	var shapes [4]sessionShape
	in, err := prepareInputs()
	if err != nil {
		return err
	}
	skewViol, slewViol := 0, 0
	for k, b := range sessionBenches {
		req := serve.FlowRequest{Bench: b, Scheme: smartScheme}
		pr, err := r.probeFlow(req)
		r.check(err)
		if err != nil {
			return err
		}
		probes = append(probes, pr)
		if pr.metrics.Skew > maxSkew {
			skewViol++
		}
		if pr.metrics.SlewViol > 0 {
			slewViol++
		}
		tw, err := r.openTwin(req, pr.body)
		if err != nil {
			return err
		}
		twins = append(twins, tw)
		shapes[k] = in.shapes[k]
		shapes[k].nodes = tw.nodes
	}
	r.flowCounts(probes)
	// The optimizer's own results here are the pristine designs; the
	// edited session states are not optimized and may break bounds.
	r.vals["core.skew_viol_frac"] = float64(skewViol) / float64(len(probes))
	r.vals["core.slew_viol_frac"] = float64(slewViol) / float64(len(probes))
	for i := 0; i < 2; i++ {
		if err := r.allocFlow(serve.FlowRequest{Bench: sessionBenches[i], Scheme: smartScheme}); err != nil {
			return err
		}
	}
	if err := r.coverHier(sessionSpec(0)); err != nil {
		return err
	}
	r.rec.aside = false

	streams := [interactiveClients]*opStream{}
	for c := range streams {
		streams[c] = newOpStream(r.seed, "interactive", c, shapes)
	}
	rep := newOpsReplay(twins)
	for i := 0; i < replayOps; i++ {
		op := streams[i%interactiveClients].next()
		tw, hit := twins[op.Sess], twins[max(op.Hit, 0)]
		err := r.probeOp(op, op.body(), tw, hit, &rep.visits)
		r.check(err)
		if err != nil {
			return err
		}
	}
	rep.record(r.vals)
	// Exact allocation counts of the request path, continuing the
	// streams on one goroutine.
	for i := 0; i < 20; i++ {
		op := streams[i%interactiveClients].next()
		name := "serve.handler.hit"
		path, body := "/v1/flow", op.body()
		if op.Hit < 0 {
			name = "serve.handler.delta"
			path = "/v1/session/" + twins[op.Sess].id[0] + "/delta"
		}
		if err := r.alloc(name, func() error {
			_, err := serveHTTP(r.wired, http.MethodPost, path, body)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// The flow workloads' own operations never reach the session layers,
// and the flat ones never reach hier (nor hier-100k a flat cts.build).
// coverSessions and coverHier measure those layers on the workload's own
// inputs, as aside spans, so every per-layer metric is measured on every
// workload.

// coverOps is how many session operations coverSessions replays.
const coverOps = 80

// coverSessions opens a session on the design of req (already run cold on
// the wired server, with pristine its body) and replays a short seeded
// interactive mix on it: single-edit deltas with a rollback every 8th, and
// every 5th operation a cache hit of the design.
func (r *replayer) coverSessions(req serve.FlowRequest, pristine []byte) error {
	tw, err := r.openTwin(req, pristine)
	if err != nil {
		return err
	}
	bm, err := workload.GenerateP(tw.spec, 0)
	if err != nil {
		return err
	}
	sh := sessionShape{dieX: tw.spec.DieX, dieY: tw.spec.DieY, nodes: tw.nodes}
	for _, s := range bm.Sinks {
		sh.locX = append(sh.locX, s.Loc.X)
		sh.locY = append(sh.locY, s.Loc.Y)
	}
	gen := newOpStream(r.seed, "cover", 0, [4]sessionShape{sh})
	rep := newOpsReplay([]*twin{tw})
	deltas := 0
	for i := 0; i < coverOps; i++ {
		op := iop{Hit: -1}
		body := flowBody(req)
		switch {
		case i%hitEvery == hitEvery-1:
			op.Hit = 0
		case (deltas+1)%rollbackEvery == 0:
			deltas++
			op.Rollback = true
			body = op.body()
		default:
			deltas++
			op.Edit = gen.edit(0)
			body = op.body()
		}
		if err := r.probeOp(op, body, tw, tw, &rep.visits); err != nil {
			return err
		}
	}
	rep.record(r.vals)
	return nil
}

// coverRegionSinks partitions a flat workload's design for coverHier.
const coverRegionSinks = 512

// coverHier builds spec with the hierarchical builder, at Workers=nproc
// and serially (which also gives its exact allocations).
func (r *replayer) coverHier(spec workload.Spec) error {
	bm, err := workload.GenerateP(spec, 1)
	if err != nil {
		return err
	}
	cfg := func(workers int) hier.Config {
		return hier.Config{MaxRegionSinks: coverRegionSinks, Smart: true, Workers: workers, InSlew: r.inSlew}
	}
	id := r.nextReq()
	var hres *hier.Result
	r.rec.settle = true
	defer func() { r.rec.settle = false }()
	if _, err := r.rec.call(id, 0, "hier.build", func() (err error) {
		hres, err = hier.Build(r.ctx, bm.Sinks, bm.Src, r.te, r.lib, cfg(0))
		return err
	}); err != nil {
		return err
	}
	r.vals["hier.regions"] = float64(hres.NumRegions)
	return r.alloc("hier.build", func() error {
		_, err := r.rec.call(id, 0, "hier.build_serial", func() error {
			_, err := hier.Build(r.ctx, bm.Sinks, bm.Src, r.te, r.lib, cfg(1))
			return err
		})
		return err
	})
}

// probeOp replays one interactive operation layer by layer:
//
//	serve.handler.hit     serve.decode, serve.key
//	serve.handler.delta   serve.decode, core.canonical_edits,
//	                      smartndr.apply_state (core.eco, sta.incremental),
//	                      smartndr.session_key, serve.encode
//	sta.full              a full evaluate of the same edited tree
//
// A hit re-fetches hit's design; a delta goes to tw.
func (r *replayer) probeOp(op iop, body []byte, tw, hit *twin, visits *[]float64) error {
	id := r.nextReq()
	o := r.rec.open(id, 0, "op")
	defer r.rec.close(o)
	if op.Hit >= 0 {
		h, err := r.rec.call(id, o, "serve.handler.hit", func() error {
			w, err := serveHTTP(r.wired, http.MethodPost, "/v1/flow", body)
			if err == nil {
				err = checkSame(w.Body.Bytes(), hit.pristine, "in-memory hit")
			}
			return err
		})
		if err != nil {
			return err
		}
		if _, err := r.rec.call(id, o, "serve.handler_bare.hit", func() error {
			_, err := serveHTTP(r.bare, http.MethodPost, "/v1/flow", body)
			return err
		}); err != nil {
			return err
		}
		var req *serve.FlowRequest
		if _, err := r.rec.call(id, h, "serve.decode", func() (err error) {
			req, err = serve.DecodeFlowRequest(body)
			return err
		}); err != nil {
			return err
		}
		_, err = r.rec.call(id, h, "serve.key", func() error {
			_, err := r.fr.FlowKey(req)
			return err
		})
		return err
	}
	var result []byte
	h, err := r.rec.call(id, o, "serve.handler.delta", func() error {
		w, err := serveHTTP(r.wired, http.MethodPost, "/v1/session/"+tw.id[0]+"/delta", body)
		if err != nil {
			return err
		}
		var sr serve.SessionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
			return err
		}
		result = sr.Result
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := r.rec.call(id, o, "serve.handler_bare.delta", func() error {
		_, err := serveHTTP(r.bare, http.MethodPost, "/v1/session/"+tw.id[1]+"/delta", body)
		return err
	}); err != nil {
		return err
	}
	if _, err := r.rec.call(id, h, "serve.decode", func() error {
		_, err := serve.DecodeSessionDeltaRequest(body)
		return err
	}); err != nil {
		return err
	}
	var state []core.Edit
	if !op.Rollback {
		r.rec.call(id, h, "core.canonical_edits", func() error {
			state = core.CanonicalEdits(append(append([]core.Edit(nil), tw.live...), op.Edit))
			return nil
		})
	}
	tw.live = state
	var m core.Metrics
	apply, err := r.rec.call(id, h, "smartndr.apply_state", func() (err error) {
		m, err = tw.sess.ApplyState(r.ctx, state)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := r.rec.call(id, apply, "core.eco", func() error {
		return tw.eco.SetState(state, tw.eng.Touch)
	}); err != nil {
		return err
	}
	v0 := tw.eng.Stats().NodeVisits
	var mi, mf core.Metrics
	if _, err := r.rec.call(id, apply, "sta.incremental", func() (err error) {
		mi, _, err = core.EvaluateInc(tw.tree, r.te, r.lib, tw.eco.InSlew(r.inSlew), tw.eng, nil)
		return err
	}); err != nil {
		return err
	}
	*visits = append(*visits, float64(tw.eng.Stats().NodeVisits-v0))
	var key string
	if _, err := r.rec.call(id, h, "smartndr.session_key", func() (err error) {
		key, err = tw.sess.Key(state)
		return err
	}); err != nil {
		return err
	}
	var enc []byte
	if _, err := r.rec.call(id, h, "serve.encode", func() error {
		built := tw.sess.Built()
		b, err := json.Marshal(&serve.FlowResponse{Key: key, Bench: tw.spec.Name, Scheme: smartScheme, Tech: r.te.Name,
			Sinks: tw.spec.Sinks, Buffers: built.Buffers, Clusters: built.NumClusters, Metrics: m, Stats: tw.sess.Result().Stats})
		if err != nil {
			return err
		}
		enc = b
		_, err = json.Marshal(&serve.SessionResponse{Session: tw.id[0], Key: key, Nodes: tw.sess.Nodes(), Result: b})
		return err
	}); err != nil {
		return err
	}
	if _, err := r.rec.call(id, o, "sta.full", func() (err error) {
		mf, _, err = core.EvaluateTr(tw.tree, r.te, r.lib, tw.eco.InSlew(r.inSlew), nil)
		return err
	}); err != nil {
		return err
	}
	switch {
	case !reflect.DeepEqual(mi, mf):
		return fmt.Errorf("session on %s: incremental metrics differ from a full evaluate of the same tree", tw.spec.Name)
	case !reflect.DeepEqual(mi, m):
		return fmt.Errorf("session on %s: layer replay metrics differ from the facade's", tw.spec.Name)
	}
	return checkSame(result, enc, "session on "+tw.spec.Name+": in-memory delta")
}

// overhead times the pure request-path probes (decode and key) with
// span recording and without; the ratio is what the traced replay's own
// bookkeeping costs.
func (r *replayer) overhead(bodies [][]byte) float64 {
	pass := func(off bool) time.Duration {
		saved := r.rec.off
		r.rec.off = off
		defer func() { r.rec.off = saved }()
		t0 := time.Now()
		for _, b := range bodies {
			id := r.nextReq()
			var req *serve.FlowRequest
			r.rec.call(id, 0, "overhead.decode", func() (err error) {
				req, err = serve.DecodeFlowRequest(b)
				return err
			})
			r.rec.call(id, 0, "overhead.key", func() error {
				_, err := r.fr.FlowKey(req)
				return err
			})
		}
		return time.Since(t0)
	}
	// The fastest of many alternating passes is the least disturbed
	// estimate of each side.
	on, off := time.Hour, time.Hour
	for i := 0; i < 25; i++ {
		off = min(off, pass(true))
		on = min(on, pass(false))
	}
	return on.Seconds()/off.Seconds() - 1
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"smartndrd.ready_ms", "ms"},
	{"smartndrd.vmhwm_mb", "MB"},
	{"http.gap_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.handler_flow_ms", "ms"},
	{"serve.handler_delta_ms", "ms"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.key_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"serve.handler_allocs", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.errors", "count"},
	{"serve.saturated", "count"},
	{"serve.timeouts", "count"},
	{"cluster.route_ms", "ms"},
	{"smartndr.run_ms", "ms"},
	{"smartndr.unattributed_ms", "ms"},
	{"smartndr.open_session_ms", "ms"},
	{"smartndr.apply_state_ms", "ms"},
	{"smartndr.session_key_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"workload.generate_allocs", "count"},
	{"workload.sinks", "count"},
	{"cts.build_ms", "ms"},
	{"cts.build_allocs", "count"},
	{"cts.build_alloc_mb", "MB"},
	{"cts.nodes", "count"},
	{"cts.buffers", "count"},
	{"core.optimize_ms", "ms"},
	{"core.optimize_allocs", "count"},
	{"core.optimize_alloc_mb", "MB"},
	{"core.passes", "count"},
	{"core.downgrades", "count"},
	{"core.upgrades", "count"},
	{"core.repair_rounds", "count"},
	{"core.recover_rounds", "count"},
	{"core.repair_wire_mm", "mm"},
	{"core.cap_saved_frac", "ratio"},
	{"core.evaluate_ms", "ms"},
	{"core.canonical_edits_ms", "ms"},
	{"core.eco_ms", "ms"},
	{"core.skew_viol_frac", "ratio"},
	{"core.slew_viol_frac", "ratio"},
	{"sta.incremental_ms", "ms"},
	{"sta.full_ms", "ms"},
	{"sta.inc_speedup", "ratio"},
	{"sta.node_visits", "count"},
	{"sta.inc_frac", "ratio"},
	{"sta.fallbacks", "count"},
	{"hier.build_ms", "ms"},
	{"hier.build_alloc_mb", "MB"},
	{"hier.regions", "count"},
	{"hier.par_speedup", "ratio"},
	{"hier.skew_viol_frac", "ratio"},
	{"obs.telemetry_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// layerAgg is every span of one name.
type layerAgg struct {
	name      string
	dur, self []float64 // ms; self only for spans with children
	aside     bool
}

// aggregate groups spans by name (preferring the workload's operations
// over set-up spans of the same name) and computes self times.
func aggregate(spans []span) (map[string]*layerAgg, []string) {
	child := make([]float64, len(spans)+1)
	hasKids := make([]bool, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.ms()
			hasKids[s.Parent] = true
		}
	}
	main := map[string]bool{}
	for _, s := range spans {
		if !s.Aside {
			main[s.Name] = true
		}
	}
	aggs := map[string]*layerAgg{}
	var order []string
	for _, s := range spans {
		if s.Name == "op" || (s.Aside && main[s.Name]) {
			continue
		}
		a := aggs[s.Name]
		if a == nil {
			a = &layerAgg{name: s.Name, aside: s.Aside}
			aggs[s.Name] = a
			order = append(order, s.Name)
		}
		a.dur = append(a.dur, s.ms())
		if hasKids[s.ID] {
			a.self = append(a.self, s.ms()-child[s.ID])
		}
	}
	return aggs, order
}

// perLayerMetrics derives the per-layer metrics from the spans, the
// allocation pass and the end-to-end phase. Metrics a workload does not
// exercise stay 0 and are listed as such.
func (r *replayer) perLayerMetrics(aggs map[string]*layerAgg) {
	v := r.vals
	e := r.e2e
	// Each metric is set only when the workload produced its source.
	med := func(metric, span string) {
		if a := aggs[span]; a != nil {
			v[metric] = median(a.dur)
		}
	}
	self := func(metric, span string) {
		if a := aggs[span]; a != nil && len(a.self) > 0 {
			v[metric] = median(a.self)
		}
	}
	allocMed := func(metrics [2]string, groups ...string) {
		var n, mb []float64
		for _, g := range groups {
			for _, a := range r.allocs[g] {
				n = append(n, float64(a.allocs))
				mb = append(mb, float64(a.bytes)/(1<<20))
			}
		}
		if len(n) == 0 {
			return
		}
		if metrics[0] != "" {
			v[metrics[0]] = median(n)
		}
		if metrics[1] != "" {
			v[metrics[1]] = median(mb)
		}
	}
	v["smartndrd.ready_ms"] = median(e.readies)
	v["smartndrd.vmhwm_mb"] = e.hwmMB
	// The handler over the workload's own operation mix.
	var handler, handlerBare, unattr []float64
	for _, cls := range []string{"flow", "delta", "hit"} {
		if a := aggs["serve.handler."+cls]; a != nil && !a.aside {
			handler = append(handler, a.dur...)
			unattr = append(unattr, a.self...)
		}
		if a := aggs["serve.handler_bare."+cls]; a != nil && !a.aside {
			handlerBare = append(handlerBare, a.dur...)
		}
	}
	if len(handler) > 0 {
		v["serve.handler_ms"] = median(handler)
		v["http.gap_ms"] = median(e.ph.lat) - median(handler)
		v["serve.unattributed_ms"] = median(unattr)
	}
	if len(handlerBare) > 0 {
		v["obs.telemetry_frac"] = median(handler)/median(handlerBare) - 1
	}
	med("serve.handler_flow_ms", "serve.handler.flow")
	med("serve.handler_delta_ms", "serve.handler.delta")
	med("serve.handler_hit_ms", "serve.handler.hit")
	med("serve.decode_ms", "serve.decode")
	med("serve.key_ms", "serve.key")
	med("serve.encode_ms", "serve.encode")
	c := e.statsz.Counters
	if n := c["serve.cache_hits"] + c["serve.cache_misses"]; n > 0 {
		v["serve.cache_hit_ratio"] = c["serve.cache_hits"] / n
	}
	v["serve.errors"] = c["serve.errors"]
	v["serve.saturated"] = c["serve.saturated"]
	v["serve.timeouts"] = c["serve.timeouts"]
	if d := routeDiffs(r.rec.spans); len(d) > 0 {
		v["cluster.route_ms"] = median(d)
	}
	med("smartndr.run_ms", "smartndr.run")
	self("smartndr.unattributed_ms", "smartndr.run")
	med("smartndr.open_session_ms", "smartndr.open_session")
	med("smartndr.apply_state_ms", "smartndr.apply_state")
	med("smartndr.session_key_ms", "smartndr.session_key")
	med("workload.generate_ms", "workload.generate")
	med("cts.build_ms", "cts.build")
	med("core.optimize_ms", "core.optimize")
	med("core.evaluate_ms", "core.evaluate")
	med("core.canonical_edits_ms", "core.canonical_edits")
	med("core.eco_ms", "core.eco")
	med("sta.incremental_ms", "sta.incremental")
	med("sta.full_ms", "sta.full")
	if inc, ok := v["sta.incremental_ms"]; ok {
		v["sta.inc_speedup"] = v["sta.full_ms"] / inc
	}
	med("hier.build_ms", "hier.build")
	if hb, ok := v["hier.build_ms"]; ok {
		if a := aggs["hier.build_serial"]; a != nil {
			v["hier.par_speedup"] = median(a.dur) / hb
		}
	}
	if e.ph.flows > 0 {
		v["core.skew_viol_frac"] = float64(e.ph.skewViol) / float64(e.ph.flows)
		v["core.slew_viol_frac"] = float64(e.ph.slewViol) / float64(e.ph.flows)
		if e.def.name == "hier-100k" {
			v["hier.skew_viol_frac"] = v["core.skew_viol_frac"]
		}
	}
	// The handler's allocations over the workload's own operations; a
	// 100K-sink request is not counted (one more 4 s engine run).
	switch e.def.name {
	case "interactive":
		allocMed([2]string{"serve.handler_allocs", ""}, "serve.handler.delta", "serve.handler.hit")
	case "cold-flow":
		allocMed([2]string{"serve.handler_allocs", ""}, "serve.handler.flow")
	}
	allocMed([2]string{"workload.generate_allocs", ""}, "workload.generate")
	allocMed([2]string{"cts.build_allocs", "cts.build_alloc_mb"}, "cts.build")
	allocMed([2]string{"core.optimize_allocs", "core.optimize_alloc_mb"}, "core.optimize")
	allocMed([2]string{"", "hier.build_alloc_mb"}, "hier.build")
}

// routeDiffs pairs each request's fastest cluster.run_expired with its
// fastest serve.run_expired.
func routeDiffs(spans []span) []float64 {
	fastest := func(name string) map[int]float64 {
		m := map[int]float64{}
		for _, s := range spans {
			if s.Name == name {
				if v, ok := m[s.Req]; !ok || s.ms() < v {
					m[s.Req] = s.ms()
				}
			}
		}
		return m
	}
	cl, sv := fastest("cluster.run_expired"), fastest("serve.run_expired")
	var d []float64
	for _, req := range sortedReqs(cl) {
		if s, ok := sv[req]; ok {
			d = append(d, cl[req]-s)
		}
	}
	return d
}

func sortedReqs(m map[int]float64) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// runTraced runs the end-to-end phase (its p50 is the base of http.gap_ms
// and its responses give the constraint counts), then the in-process
// replay, and prints the per-layer report.
func runTraced(ctx context.Context, o runOpts, def loadDef, w io.Writer) (*result, error) {
	e2e, err := runE2E(ctx, o, def)
	if err != nil {
		return nil, err
	}
	e2e.report(w, e2e.endToEnd())
	r, err := newReplayer(ctx, o.seed, e2e)
	if err != nil {
		return nil, err
	}
	if err := def.replay(ctx, r); err != nil && r.failed == 0 {
		// A replay stops at its first error; one the per-operation
		// checks did not already count is counted here.
		r.check(err)
	}
	var bodies [][]byte
	for i := 0; i < 16; i++ {
		bodies = append(bodies, flowBody(specRequest(coldFlowSpec(o.seed, i), 0)))
	}
	r.vals["trace.overhead_frac"] = r.overhead(bodies)
	spans := r.rec.spans
	aggs, order := aggregate(spans)
	r.perLayerMetrics(aggs)
	path, err := writeSpans(o.out, def.name, o.seed, spans)
	if err != nil {
		return nil, err
	}
	printSelfTable(w, def.name, aggs, order, r.allocs)
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)
	res := &result{
		Correct:   e2e.ph.failed == 0 && r.failed == 0,
		Attempted: e2e.ph.attempted + r.attempted,
		Failed:    e2e.ph.failed + r.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(w, "per-layer metrics (%s):\n", def.name)
	for _, m := range perLayer {
		val, ok := r.vals[m.name]
		res.Metrics[m.name] = metric{val, m.unit}
		note := ""
		if !ok {
			note = "  (not exercised by this workload)"
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-5s%s\n", m.name, val, m.unit, note)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	return res, nil
}

func writeSpans(out, name string, seed int64, spans []span) (string, error) {
	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printSelfTable prints, per span name, the median duration and self
// time, an unattributed row under every parent, and the exact
// allocation counts of the single-goroutine pass.
func printSelfTable(w io.Writer, workload string, aggs map[string]*layerAgg, order []string, al map[string][]allocRow) {
	fmt.Fprintf(w, "self time per layer call (%s; medians in ms; allocs exact, single goroutine):\n", workload)
	fmt.Fprintf(w, "  %-34s %6s %11s %11s %12s %10s\n", "span", "n", "total", "self", "allocs", "alloc MB")
	for _, name := range order {
		a := aggs[name]
		tag := ""
		if a.aside {
			tag = " [aside]"
		}
		allocs, mb := "", ""
		if rows := al[name]; len(rows) > 0 {
			var n, b []float64
			for _, r := range rows {
				n = append(n, float64(r.allocs))
				b = append(b, float64(r.bytes)/(1<<20))
			}
			allocs, mb = fmt.Sprintf("%.0f", median(n)), fmt.Sprintf("%.2f", median(b))
		}
		fmt.Fprintf(w, "  %-34s %6d %11.4f %11s %12s %10s\n", name+tag, len(a.dur), median(a.dur), "", allocs, mb)
		if len(a.self) > 0 {
			fmt.Fprintf(w, "  %-34s %6d %11s %11.4f\n", "  "+name+"/unattributed", len(a.self), "", median(a.self))
		}
	}
	var names []string
	for n := range al {
		if aggs[n] == nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		var c, b []float64
		for _, r := range al[n] {
			c = append(c, float64(r.allocs))
			b = append(b, float64(r.bytes)/(1<<20))
		}
		fmt.Fprintf(w, "  %-34s %6d %11s %11s %12.0f %10.2f\n", n+" [alloc pass]", len(c), "", "", median(c), median(b))
	}
}
