package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smartndr/internal/core"
	"smartndr/internal/serve"
	"smartndr/internal/workload"
)

// A load is one workload's client-side state machine, driven against one
// daemon: prepare is the fixed preparation counted in setup_s, timed is
// the closed-loop measured phase, post runs the checks that need the
// whole phase's outputs.
type load interface {
	prepare(ctx context.Context, c *client) error
	timed(ctx context.Context, c *client, dur time.Duration) *phase
	post(ctx context.Context, c *client, p *phase)
}

type loadDef struct {
	name    string
	clients int
	// setups is how many fresh daemons a run prepares; setup_s is the
	// median of their set-up times and the last one is measured.
	setups int
	new    func(seed int64, in *inputs) load
	// replay is the traced in-process replay (trace.go).
	replay func(ctx context.Context, r *replayer) error
}

var loads = []loadDef{
	{
		name:    "cold-flow",
		clients: 2, setups: 5,
		new:    func(seed int64, _ *inputs) load { return newFlowLoad(seed, 2, coldFlowSpec, 0, coldWarm()) },
		replay: replayColdFlow,
	},
	{
		name:    "interactive",
		clients: interactiveClients, setups: 5,
		new:    func(seed int64, in *inputs) load { return newInteractive(seed, in) },
		replay: replayInteractive,
	},
	{
		name:    "hier-100k",
		clients: 1, setups: 3,
		new:    func(seed int64, _ *inputs) load { return newFlowLoad(seed, 1, hierSpec, hierRegionSinks, hierWarm()) },
		replay: replayHier,
	},
}

func loadByName(name string) (loadDef, error) {
	for _, w := range loads {
		if w.name == name {
			return w, nil
		}
	}
	return loadDef{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is what every set-up of a run shares and what is computed before
// the first daemon starts, so it never counts as set-up time.
type inputs struct {
	shapes [4]sessionShape // interactive: per-session sink locations
}

// phase is the outcome of a run's timed phase plus its checks.
type phase struct {
	mu        sync.Mutex
	lat       []float64 // ms, one per timed operation, failed ones included
	dur       time.Duration
	attempted int
	failed    int
	problems  []string
	chains    map[string]*chain
	flows     int // smart-ndr flow results seen
	skewViol  int
	slewViol  int
	qors      map[int][32]byte // flow workloads: QoR hash per request index
}

func newPhase() *phase { return &phase{chains: map[string]*chain{}} }

// record adds one operation's outcome.
func (p *phase) record(ms float64, timed bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if timed {
		p.lat = append(p.lat, ms)
	}
	p.attempted++
	if err != nil {
		p.fail(err.Error())
	}
}

// fail counts one failed check; callers hold p.mu while clients run.
func (p *phase) fail(msg string) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, msg)
	}
}

func (p *phase) countFlow(fc flowCheck) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flows++
	if fc.skewViol {
		p.skewViol++
	}
	if fc.slewViol {
		p.slewViol++
	}
}

// closedLoop runs one goroutine per client; each issues its next
// operation only after the previous one completed, until dur has passed.
// Operations started before the deadline finish and count; the phase
// ends when the last one does.
func closedLoop(clients int, dur time.Duration, step func(client int)) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				step(c)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runFixed runs n operations over clients goroutines (set-up work).
func runFixed(clients, n int, op func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := op(i); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// flowLoad drives /v1/flow with a seeded stream of distinct designs:
// cold-flow (two clients, flat cns shapes) and hier-100k (one client,
// 100K-sink hierarchical designs).
type flowLoad struct {
	seed        int64
	clients     int
	spec        func(seed int64, i int) workload.Spec
	regionSinks int
	warm        []workload.Spec
	next        atomic.Int64
}

func newFlowLoad(seed int64, clients int, spec func(int64, int) workload.Spec, regionSinks int, warm []workload.Spec) *flowLoad {
	return &flowLoad{seed: seed, clients: clients, spec: spec, regionSinks: regionSinks, warm: warm}
}

func coldWarm() []workload.Spec {
	var w []workload.Spec
	for j := 0; j < 4; j++ {
		w = append(w, coldWarmSpec(j))
	}
	return w
}

func hierWarm() []workload.Spec { return []workload.Spec{hierWarmSpec()} }

func (w *flowLoad) body(s workload.Spec) []byte { return flowBody(specRequest(s, w.regionSinks)) }

func (w *flowLoad) prepare(ctx context.Context, c *client) error {
	return runFixed(w.clients, len(w.warm), func(i int) error {
		s := w.warm[i]
		rep, err := c.do(ctx, http.MethodPost, "/v1/flow", w.body(s))
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", s.Name, err)
		}
		if _, err := checkFlow(rep, s.Name, s.Sinks, "miss"); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.Name, err)
		}
		return nil
	})
}

func (w *flowLoad) timed(ctx context.Context, c *client, dur time.Duration) *phase {
	p := newPhase()
	p.qors = map[int][32]byte{}
	p.dur = closedLoop(w.clients, dur, func(int) {
		i := int(w.next.Add(1) - 1)
		s := w.spec(w.seed, i)
		rep, err := c.do(ctx, http.MethodPost, "/v1/flow", w.body(s))
		var fc flowCheck
		if err == nil {
			fc, err = checkFlow(rep, s.Name, s.Sinks, "miss")
		}
		if err != nil {
			err = fmt.Errorf("request %d (%s): %w", i, s.Name, err)
		} else {
			p.countFlow(fc)
			p.mu.Lock()
			p.qors[i] = fc.qor
			p.mu.Unlock()
		}
		p.record(rep.ms, true, err)
	})
	// Every request index below next was started and has finished, so
	// the chain covers a gap-free prefix of the request stream.
	ch := newChain()
	for i := 0; i < int(w.next.Load()); i++ {
		q, ok := p.qors[i]
		if !ok {
			break
		}
		ch.add(q)
	}
	p.chains["requests"] = ch
	return p
}

func (w *flowLoad) post(context.Context, *client, *phase) {}

// interactive drives the session workload: each of two clients owns two
// sessions and mixes single-edit deltas with cache hits on pristine
// designs.
type interactive struct {
	seed     int64
	in       *inputs
	ids      [4]string
	revs     [4]int
	pristine [4][]byte // cold /v1/flow body of each session's design
	streams  [interactiveClients]*opStream
	// Session states kept for the post-phase cold check: a seeded early
	// state and the final state of every session.
	sampleAt [4]int
	samples  []stateSample
}

type stateSample struct {
	sess   int
	state  []core.Edit
	result []byte
}

// warmOps is the fixed per-client warm-up inside set-up.
const warmOps = 12

// sampleWindow bounds the seeded delta index whose state is re-checked.
const sampleWindow = 48

func newInteractive(seed int64, in *inputs) *interactive {
	w := &interactive{seed: seed, in: in}
	for k := range w.sampleAt {
		w.sampleAt[k] = 1 + int(derive(seed, "interactive-sample", k)%sampleWindow)
	}
	return w
}

// prepareInputs computes what the interactive edit generator needs to
// know about each session's design, outside set-up time.
func prepareInputs() (*inputs, error) {
	in := &inputs{}
	for k, b := range sessionBenches {
		sh, err := newSessionShape(b, 0)
		if err != nil {
			return nil, err
		}
		in.shapes[k] = sh
	}
	return in, nil
}

func (w *interactive) prepare(ctx context.Context, c *client) error {
	var shapes [4]sessionShape
	for k, b := range sessionBenches {
		body := flowBody(serve.FlowRequest{Bench: b, Scheme: smartScheme})
		rep, err := c.do(ctx, http.MethodPost, "/v1/session", body)
		if err != nil {
			return fmt.Errorf("open session on %s: %w", b, err)
		}
		sr, err := decodeSession(rep)
		if err != nil {
			return fmt.Errorf("open session on %s: %w", b, err)
		}
		w.ids[k] = sr.Session
		shapes[k] = w.in.shapes[k]
		shapes[k].nodes = sr.Nodes
		rep, err = c.do(ctx, http.MethodPost, "/v1/flow", flowBody(serve.FlowRequest{Bench: b, Scheme: smartScheme}))
		if err != nil {
			return fmt.Errorf("cold %s: %w", b, err)
		}
		spec := sessionSpec(k)
		if _, err := checkFlow(rep, b, spec.Sinks, "miss"); err != nil {
			return fmt.Errorf("cold %s: %w", b, err)
		}
		if err := checkSame(sr.Result, rep.body, "session "+b+" at rev 0"); err != nil {
			return err
		}
		w.pristine[k] = rep.body
	}
	for c := range w.streams {
		w.streams[c] = newOpStream(w.seed, "interactive", c, shapes)
	}
	// The fixed warm-up runs both clients concurrently on a seed-free
	// stream, then rolls every session back to its pristine state, so the
	// timed phase starts from the same state whatever the seed.
	errs := make([]error, interactiveClients)
	var wg sync.WaitGroup
	for cl := 0; cl < interactiveClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newOpStream(0, "interactive-warm", cl, shapes)
			for i := 0; i < warmOps && errs[cl] == nil; i++ {
				errs[cl] = w.do(ctx, c, ws.next())
			}
			for k := 2 * cl; k < 2*cl+2 && errs[cl] == nil; k++ {
				errs[cl] = w.do(ctx, c, iop{Hit: -1, Sess: k, Rollback: true})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func sessionSpec(k int) workload.Spec {
	s, err := workload.ByName(sessionBenches[k])
	if err != nil {
		panic(err) // the four session designs are built-in
	}
	return s
}

// do sends one untimed interactive operation and checks its reply.
func (w *interactive) do(ctx context.Context, c *client, op iop) error {
	rep, err := w.send(ctx, c, op)
	if err == nil {
		_, _, err = w.check(op, rep)
	}
	return err
}

func (w *interactive) send(ctx context.Context, c *client, op iop) (reply, error) {
	if op.Hit >= 0 {
		return c.do(ctx, http.MethodPost, "/v1/flow", op.body())
	}
	return c.do(ctx, http.MethodPost, "/v1/session/"+w.ids[op.Sess]+"/delta", op.body())
}

// check validates a reply and returns its QoR hash and, for deltas, the
// session's result bytes.
func (w *interactive) check(op iop, rep reply) ([32]byte, []byte, error) {
	if op.Hit >= 0 {
		if rep.status != http.StatusOK || rep.cache != serve.CacheHit {
			return [32]byte{}, nil, fmt.Errorf("hit on %s: status %d, X-Cache %q", sessionBenches[op.Hit], rep.status, rep.cache)
		}
		if err := checkSame(rep.body, w.pristine[op.Hit], "hit on "+sessionBenches[op.Hit]); err != nil {
			return [32]byte{}, nil, err
		}
		q, err := qorHash(rep.body)
		return q, nil, err
	}
	sr, err := decodeSession(rep)
	if err != nil {
		return [32]byte{}, nil, fmt.Errorf("delta on session %d: %w", op.Sess, err)
	}
	w.revs[op.Sess]++
	if sr.Session != w.ids[op.Sess] || sr.Rev != w.revs[op.Sess] {
		return [32]byte{}, nil, fmt.Errorf("delta on session %d: got %s rev %d, want %s rev %d",
			op.Sess, sr.Session, sr.Rev, w.ids[op.Sess], w.revs[op.Sess])
	}
	spec := sessionSpec(op.Sess)
	if _, err := checkFlowBody(sr.Result, spec.Name, spec.Sinks); err != nil {
		return [32]byte{}, nil, fmt.Errorf("delta on session %d: %w", op.Sess, err)
	}
	q, err := qorHash(sr.Result)
	return q, sr.Result, err
}

func decodeSession(rep reply) (*serve.SessionResponse, error) {
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rep.status, truncate(rep.body))
	}
	var sr serve.SessionResponse
	if err := json.Unmarshal(rep.body, &sr); err != nil {
		return nil, fmt.Errorf("decode session body: %w", err)
	}
	if len(sr.Result) == 0 {
		return nil, fmt.Errorf("session body has no result")
	}
	return &sr, nil
}

// irec is one timed interactive operation, checked after the phase.
type irec struct {
	op      iop
	rep     reply
	err     error
	sampled bool        // re-checked cold after the phase
	state   []core.Edit // the session's state after a sampled delta
}

// timed only sends and stores replies; every check runs after the phase,
// so the client spends as little CPU as possible next to the daemon.
func (w *interactive) timed(ctx context.Context, c *client, dur time.Duration) *phase {
	p := newPhase()
	var recs [interactiveClients][]irec
	var issued [4]int // deltas sent per session; each session has one client
	p.dur = closedLoop(interactiveClients, dur, func(cl int) {
		s := w.streams[cl]
		op := s.next()
		r := irec{op: op}
		if op.Hit < 0 {
			if issued[op.Sess]++; issued[op.Sess] == w.sampleAt[op.Sess] {
				r.sampled, r.state = true, s.state(op.Sess)
			}
		}
		r.rep, r.err = w.send(ctx, c, op)
		recs[cl] = append(recs[cl], r)
	})
	for cl := range recs {
		ch := newChain()
		var last [4][]byte
		for _, r := range recs[cl] {
			err := r.err
			var qor [32]byte
			var result []byte
			if err == nil {
				qor, result, err = w.check(r.op, r.rep)
			}
			p.record(r.rep.ms, true, err)
			if err != nil {
				continue
			}
			ch.add(qor)
			if k := r.op.Sess; r.op.Hit < 0 {
				last[k] = result
				if r.sampled {
					w.samples = append(w.samples, stateSample{k, r.state, result})
				}
			}
		}
		p.chains[fmt.Sprintf("client-%d", cl)] = ch
		for k := 2 * cl; k < 2*cl+2; k++ {
			if last[k] != nil {
				w.samples = append(w.samples, stateSample{k, w.streams[cl].state(k), last[k]})
			}
		}
	}
	return p
}

// post re-runs sampled session states cold through /v1/flow: each must
// return exactly the session's result bytes.
func (w *interactive) post(ctx context.Context, c *client, p *phase) {
	for _, smp := range w.samples {
		b := sessionBenches[smp.sess]
		body := flowBody(serve.FlowRequest{Bench: b, Scheme: smartScheme, Edits: smp.state})
		rep, err := c.do(ctx, http.MethodPost, "/v1/flow", body)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rep.status, truncate(rep.body))
		}
		if err == nil {
			err = checkSame(rep.body, smp.result, fmt.Sprintf("cold replay of session %d state (%d edits)", smp.sess, len(smp.state)))
		}
		p.record(0, false, err)
	}
}
