package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/tech"
)

// Runner executes resolved requests. The production implementation is
// FlowRunner; lifecycle tests substitute stubs so saturation and drain
// behavior can be driven without real synthesis work (and without
// sleeps). Key methods must be cheap and pure — they run before
// admission control.
type Runner interface {
	// FlowKey returns the request's content address: identical keys
	// must mean byte-identical RunFlow responses.
	FlowKey(req *FlowRequest) (string, error)
	// RunFlow executes the request. tr, when non-nil, is the
	// request-scoped tracer; engine spans nest under the caller's open
	// request span.
	RunFlow(ctx context.Context, req *FlowRequest, tr *obs.Tracer) (*FlowResponse, error)
	// SweepKey is FlowKey for sweeps.
	SweepKey(req *SweepRequest) (string, error)
	// RunSweep executes every arm against one synthesized tree and
	// returns results in arm order.
	RunSweep(ctx context.Context, req *SweepRequest, tr *obs.Tracer) (*SweepResponse, error)
}

// FlowRunner is the production Runner, backed by the public smartndr
// facade. The zero value is ready to use.
type FlowRunner struct {
	// Workers bounds sweep-arm fan-out when a request leaves its own
	// Workers at 0. 0 means all cores.
	Workers int
}

// FlowKey implements Runner using the facade's canonical content
// address, so the service's cache keys carry the full (spec, tech,
// library, scheme, knobs) provenance.
func (fr *FlowRunner) FlowKey(req *FlowRequest) (string, error) {
	cfg, err := req.flowConfig()
	if err != nil {
		return "", err
	}
	spec, err := resolveSpec(req.Bench, req.Spec)
	if err != nil {
		return "", err
	}
	scheme, err := smartndr.ParseScheme(req.Scheme)
	if err != nil {
		return "", err
	}
	return smartndr.NewFlow(cfg).CanonicalKeyEdits(spec, scheme, req.Edits)
}

// RunFlow implements Runner: generate → build → apply through the
// context-accepting facade entry point.
func (fr *FlowRunner) RunFlow(ctx context.Context, req *FlowRequest, tr *obs.Tracer) (*FlowResponse, error) {
	cfg, err := req.flowConfig()
	if err != nil {
		return nil, err
	}
	spec, err := resolveSpec(req.Bench, req.Spec)
	if err != nil {
		return nil, err
	}
	scheme, err := smartndr.ParseScheme(req.Scheme)
	if err != nil {
		return nil, err
	}
	cfg.Tracer = tr
	flow := smartndr.NewFlow(cfg)
	key, err := flow.CanonicalKeyEdits(spec, scheme, req.Edits)
	if err != nil {
		return nil, err
	}
	built, res, err := flow.RunSpecEdits(ctx, spec, scheme, req.Edits)
	if err != nil {
		return nil, err
	}
	return &FlowResponse{
		Key:      key,
		Bench:    workloadName(req.Bench, req.Spec),
		Scheme:   scheme.String(),
		Tech:     flow.Config().Tech.Name,
		Sinks:    spec.Sinks,
		Buffers:  built.Buffers,
		Clusters: built.NumClusters,
		Metrics:  res.Metrics,
		Stats:    res.Stats,
	}, nil
}

// SessionRunner is the optional Runner extension behind POST /v1/session.
// Runners that cannot host stateful sessions (or only host them on a
// different node) simply don't implement it and the server answers 501.
type SessionRunner interface {
	// OpenSession runs the request cold and returns a handle holding the
	// built tree and a primed dirty-region engine. The handle must NOT
	// retain tr — it outlives the request; tr only scopes the open
	// itself.
	OpenSession(ctx context.Context, req *FlowRequest, tr *obs.Tracer) (SessionHandle, error)
}

// SessionHandle is one live session. The server serializes Apply calls
// per session (single writer); the other methods are read-only and may
// run concurrently with each other but not with Apply.
type SessionHandle interface {
	// Apply moves the session to the given absolute canonical edit state
	// (nil = pristine), re-evaluates through the dirty-region engine, and
	// returns the exact response body a cold /v1/flow of the equivalently
	// edited request would produce, plus its content address.
	Apply(ctx context.Context, edits []smartndr.Edit) (body []byte, key string, err error)
	// Key returns the content address of a hypothetical edit state
	// without applying it.
	Key(edits []smartndr.Edit) (string, error)
	// Live returns the canonical edit state currently applied.
	Live() []smartndr.Edit
	// Nodes is the tree's node count — the valid range for node-indexed
	// edits, surfaced so clients can generate them.
	Nodes() int
	// MemoryBytes estimates resident footprint for store accounting.
	MemoryBytes() int64
}

// OpenSession implements SessionRunner on the production runner. The
// session's flow deliberately carries no tracer: the session outlives
// the creating request, and the engine's ambient span stack is only
// meaningful on one goroutine.
func (fr *FlowRunner) OpenSession(ctx context.Context, req *FlowRequest, tr *obs.Tracer) (SessionHandle, error) {
	cfg, err := req.flowConfig()
	if err != nil {
		return nil, err
	}
	spec, err := resolveSpec(req.Bench, req.Spec)
	if err != nil {
		return nil, err
	}
	scheme, err := smartndr.ParseScheme(req.Scheme)
	if err != nil {
		return nil, err
	}
	sp := tr.Start("serve.session_open", obs.S("scheme", scheme.String()))
	defer sp.End()
	sess, err := smartndr.NewFlow(cfg).OpenSession(ctx, spec, scheme)
	if err != nil {
		return nil, err
	}
	built := sess.Built()
	return &flowSessionHandle{
		sess: sess,
		resp: FlowResponse{
			Bench:    workloadName(req.Bench, req.Spec),
			Scheme:   scheme.String(),
			Tech:     cfg.Tech.Name,
			Sinks:    spec.Sinks,
			Buffers:  built.Buffers,
			Clusters: built.NumClusters,
			Stats:    sess.Result().Stats,
		},
	}, nil
}

// flowSessionHandle adapts a smartndr.FlowSession to the wire: every
// Apply re-marshals the same FlowResponse shape RunFlow produces, so the
// bytes are interchangeable with a cold run's by construction.
type flowSessionHandle struct {
	sess *smartndr.FlowSession
	resp FlowResponse // immutable template; Key/Metrics filled per state
}

func (h *flowSessionHandle) Apply(ctx context.Context, edits []smartndr.Edit) ([]byte, string, error) {
	m, err := h.sess.ApplyState(ctx, edits)
	if err != nil {
		return nil, "", err
	}
	key, err := h.sess.Key(edits)
	if err != nil {
		return nil, "", err
	}
	r := h.resp
	r.Key = key
	r.Metrics = m
	// Stats reports the pristine-tree optimization — edits are
	// post-synthesis, so a cold run of the edited spec returns the same
	// stats; see Flow.RunSpecEdits.
	b, err := json.Marshal(&r)
	if err != nil {
		return nil, "", err
	}
	return b, key, nil
}

func (h *flowSessionHandle) Key(edits []smartndr.Edit) (string, error) { return h.sess.Key(edits) }
func (h *flowSessionHandle) Live() []smartndr.Edit                     { return h.sess.Live() }
func (h *flowSessionHandle) Nodes() int                                { return h.sess.Nodes() }
func (h *flowSessionHandle) MemoryBytes() int64                        { return h.sess.MemoryBytes() }

// sweepKeyVersion prefixes sweep content addresses; bump on any change
// to the sweep result format or semantics.
const sweepKeyVersion = "smartndr/sweep/v1"

// SweepKey implements Runner. The address covers the base run key (the
// spec, technology, library, and knobs, via the facade's canonical
// serialization with the scheme zeroed) plus the arm list in order —
// Workers is excluded because results are invariant under it.
func (fr *FlowRunner) SweepKey(req *SweepRequest) (string, error) {
	cfg, err := req.flowConfig()
	if err != nil {
		return "", err
	}
	spec, err := resolveSpec(req.Bench, req.Spec)
	if err != nil {
		return "", err
	}
	base, err := smartndr.NewFlow(cfg).CanonicalRunEdits(spec, smartndr.SchemeAllDefault, nil)
	if err != nil {
		return "", err
	}
	arms, err := json.Marshal(req.Arms)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|", sweepKeyVersion, len(base))
	h.Write(base)
	h.Write([]byte("|arms|"))
	h.Write(arms)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RunSweep implements Runner: one synthesis, then every arm applied to
// clones of the shared tree, fanned out over par with index-addressed
// results so the response order matches the request regardless of
// worker count. Arm execution runs untraced (concurrent engine spans
// would interleave); each arm instead gets one child span under the
// request span with its scheme, corner, and index.
func (fr *FlowRunner) RunSweep(ctx context.Context, req *SweepRequest, tr *obs.Tracer) (*SweepResponse, error) {
	cfg, err := req.flowConfig()
	if err != nil {
		return nil, err
	}
	spec, err := resolveSpec(req.Bench, req.Spec)
	if err != nil {
		return nil, err
	}
	key, err := fr.SweepKey(req)
	if err != nil {
		return nil, err
	}
	cfg.Tracer = tr
	flow := smartndr.NewFlow(cfg)
	sp := tr.Start("sweep.build")
	bm, err := smartndr.GenerateBenchmark(spec)
	if err != nil {
		sp.End()
		return nil, err
	}
	built, err := flow.Build(bm.Sinks, bm.Src)
	sp.End()
	if err != nil {
		return nil, err
	}

	// The arm flow shares tech/library/knobs but carries no tracer:
	// Apply uses the tracer's ambient span stack, which is only
	// meaningful on one goroutine.
	armCfg := *cfg
	armCfg.Tracer = nil
	armFlow := smartndr.NewFlow(&armCfg)
	armsSpan := tr.Start("sweep.arms", obs.I("arms", len(req.Arms)))
	defer armsSpan.End()

	workers := req.Workers
	if workers == 0 {
		workers = fr.Workers
	}
	results := make([]SweepArmResult, len(req.Arms))
	err = par.ForEach(ctx, par.Workers(workers), len(req.Arms), func(i int) error {
		arm := req.Arms[i]
		armSp := armsSpan.Child("arm",
			obs.I("i", i), obs.S("scheme", arm.Scheme), obs.S("corner", arm.Corner))
		defer armSp.End()
		scheme, err := smartndr.ParseScheme(arm.Scheme)
		if err != nil {
			return err
		}
		res, err := armFlow.Apply(built, scheme)
		if err != nil {
			return err
		}
		out := SweepArmResult{Scheme: scheme.String(), Metrics: res.Metrics}
		if arm.Corner != "" {
			corner, err := tech.CornerByName(arm.Corner)
			if err != nil {
				return err
			}
			rep, err := core.EvaluateCorners(res.Tree, armCfg.Tech, armCfg.Library,
				armFlow.Config().InSlew, []tech.Corner{corner})
			if err != nil {
				return err
			}
			out.Corner = cornerTiming(rep.Corners[0])
		}
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResponse{
		Key:     key,
		Bench:   workloadName(req.Bench, req.Spec),
		Tech:    cfg.Tech.Name,
		Sinks:   spec.Sinks,
		Buffers: built.Buffers,
		Arms:    results,
	}, nil
}
