package smartndr

import (
	"context"
	"crypto/sha256"
	"encoding"

	"smartndr/internal/core"
	"smartndr/internal/obs"
	"smartndr/internal/sta"
)

// FlowSession is a stateful design session: one built-and-optimized tree
// plus a shared dirty-region STA engine, re-evaluated in place as edits
// arrive. Where RunSpecEdits pays for generation, construction, and
// optimization on every call, a session pays once at open and then each
// delta costs only the dirty region — microseconds on trees where a cold
// run takes milliseconds.
//
// Correctness contract: after ApplyState(edits), Metrics and the content
// address returned by Key(edits) are byte-identical to what a cold
// RunSpecEdits of the same spec/scheme/edits returns. That holds because
// both paths optimize the pristine tree (edits are post-synthesis ECOs),
// the ECO makes tree bytes a pure function of the canonical edit state,
// and the incremental engine is bitwise-exact against the full pass.
//
// A FlowSession is not safe for concurrent use; callers serialize edits
// (the serve layer keeps a single-writer lock per session).
type FlowSession struct {
	flow   *Flow
	spec   BenchSpec
	scheme Scheme
	built  *Built
	result *Result
	eco    *core.ECO
	eng    *sta.Incremental
	// keyHead is the SHA-256 state after the key serialization's fixed
	// head (spec, technology, library), so Key hashes only the tail.
	keyHead []byte
}

// OpenSession runs the spec cold and wraps the result in a session. The
// returned session starts in the edit-free state; Result() is exactly the
// cold run's result.
func (f *Flow) OpenSession(ctx context.Context, spec BenchSpec, scheme Scheme) (*FlowSession, error) {
	sp := f.cfg.Tracer.Start("flow.open_session", obs.S("scheme", scheme.String()))
	defer sp.End()
	built, res, err := f.RunSpecEdits(ctx, spec, scheme, nil)
	if err != nil {
		return nil, err
	}
	eco, err := core.NewECO(res.Tree, f.cfg.Tech)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	if err := f.writeKeyHead(h, spec); err != nil {
		return nil, err
	}
	keyHead, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	s := &FlowSession{
		flow:    f,
		spec:    spec,
		scheme:  scheme,
		built:   built,
		result:  res,
		eco:     eco,
		eng:     sta.NewIncremental(f.cfg.Tech, f.cfg.Library),
		keyHead: keyHead,
	}
	// Prime the engine with a full pass now so the first delta already
	// takes the dirty-region path.
	if _, err := s.eng.Analyze(res.Tree, f.cfg.InSlew); err != nil {
		return nil, err
	}
	return s, nil
}

// ApplyState moves the session to the given canonical edit state (an
// absolute state, not an increment — pass the full accumulated edit list)
// and re-evaluates through the dirty-region engine. Passing nil rolls the
// session back to its pristine state. On an edit-validation error
// (errors.Is(err, ErrEdit)) the session state is unchanged.
func (s *FlowSession) ApplyState(ctx context.Context, edits []Edit) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	cfg := s.flow.cfg
	sp := cfg.Tracer.Start("flow.session_delta", obs.I("edits", len(edits)))
	defer sp.End()
	if err := s.eco.SetState(edits, s.eng.Touch); err != nil {
		return Metrics{}, err
	}
	m, _, err := core.EvaluateInc(s.result.Tree, cfg.Tech, cfg.Library,
		s.eco.InSlew(cfg.InSlew), s.eng, cfg.Tracer)
	if err != nil {
		return Metrics{}, err
	}
	s.result.Metrics = m
	return m, nil
}

// ErrEdit tags edit-validation failures from ApplyState and RunSpecEdits.
var ErrEdit = core.ErrEdit

// Key returns the content address the session would have at the given
// canonical edit state — equal to CanonicalKeyEdits(spec, scheme, edits).
// It resumes the hash after the serialization's fixed head, which the
// session hashed once at open.
func (s *FlowSession) Key(edits []Edit) (string, error) {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(s.keyHead); err != nil {
		return "", err
	}
	if err := s.flow.writeKeyTail(h, s.scheme, edits); err != nil {
		return "", err
	}
	return hexSum(h), nil
}

// Result returns the session's current result (tree, metrics at the live
// edit state, optimizer stats of the pristine build).
func (s *FlowSession) Result() *Result { return s.result }

// Built returns the session's build record.
func (s *FlowSession) Built() *Built { return s.built }

// Live returns the canonical edit state currently applied.
func (s *FlowSession) Live() []Edit { return s.eco.Live() }

// Nodes returns the tree's node count — the valid range for node-indexed
// edits.
func (s *FlowSession) Nodes() int {
	if s.result == nil || s.result.Tree == nil {
		return 0
	}
	return len(s.result.Tree.Nodes)
}

// EngineStats exposes the dirty-region engine counters (incremental vs
// full vs cached runs) for session telemetry.
func (s *FlowSession) EngineStats() sta.IncStats { return s.eng.Stats() }

// MemoryBytes estimates the session's resident footprint for the store's
// memory accounting: the tree plus the engine's per-node arrays and the
// ECO snapshots. An estimate is enough — eviction needs relative sizes,
// not allocator truth.
func (s *FlowSession) MemoryBytes() int64 {
	if s.result == nil || s.result.Tree == nil {
		return 0
	}
	const perNode = 320 // node + engine arrays + snapshots, rounded up
	const perSink = 96
	return int64(len(s.result.Tree.Nodes))*perNode +
		int64(len(s.result.Tree.Sinks))*perSink
}
