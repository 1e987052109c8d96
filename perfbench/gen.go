package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"smartndr/internal/core"
	"smartndr/internal/serve"
	"smartndr/internal/tech"
	"smartndr/internal/workload"
)

// Inputs are pure functions of (seed, stream, index): a run consumes a
// prefix of each stream, so the request set of a seed never depends on
// how long the run lasts or how fast the machine is.

// mix64 is the SplitMix64 finalizer. The benchmark derives its own seeds
// instead of reusing the program's substream helper, so a change to the
// program can never silently change the benchmark's inputs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the non-negative seed of item i of the named stream.
func derive(seed int64, stream string, i int) int64 {
	h := mix64(uint64(seed))
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return int64(mix64(h^uint64(i)) >> 1)
}

const smartScheme = "smart-ndr"

// coldShapes are the cns01–cns05 shapes (1200–3000 sinks, all four
// distributions) that cold-flow requests vary.
func coldShapes() []workload.Spec { return workload.CNSSuite()[:5] }

// coldFlowSpec is cold-flow request i: shape i mod 5 with a fresh seed.
// Rotating the shapes keeps every run's size mix the same, so the p50
// does not jump between shapes from one seed to the next.
func coldFlowSpec(seed int64, i int) workload.Spec {
	shapes := coldShapes()
	s := shapes[i%len(shapes)]
	s.Name = fmt.Sprintf("%s-v%d", s.Name, i)
	s.Seed = derive(seed, "cold-flow", i)
	return s
}

// coldWarmSpec is warm-up design j of cold-flow. Warm-up inputs do not
// depend on the seed, so set-up time measures the same work every run.
func coldWarmSpec(j int) workload.Spec {
	s := coldShapes()[0]
	s.Name = fmt.Sprintf("warm-%d", j)
	s.Seed = derive(0, "cold-warm", j)
	return s
}

// hierSinks is the hier-100k design size; hierRegionSinks the region cap
// every hier-100k request sets.
const (
	hierSinks       = 100_000
	hierWarmSinks   = 16_000
	hierRegionSinks = 2048
)

// hierSpec is hier-100k request i.
func hierSpec(seed int64, i int) workload.Spec {
	return workload.Scale(fmt.Sprintf("h100k-%d", i), hierSinks, derive(seed, "hier-100k", i))
}

// hierWarmSpec is the fixed hierarchical warm-up design.
func hierWarmSpec() workload.Spec {
	return workload.Scale("hier-warm", hierWarmSinks, derive(0, "hier-warm", 0))
}

// flowBody marshals a /v1/flow request.
func flowBody(req serve.FlowRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return b
}

func specRequest(spec workload.Spec, regionSinks int) serve.FlowRequest {
	return serve.FlowRequest{Spec: &spec, Scheme: smartScheme, MaxRegionSinks: regionSinks}
}

// interactive: sessions 2c and 2c+1 belong to client c; session k is
// opened on sessionBenches[k]. Hits re-fetch one of the same pristine
// designs through /v1/flow.
var sessionBenches = [4]string{"cns01", "cns02", "cns03", "cns04"}

const (
	interactiveClients = 2
	// rollbackEvery: every 8th delta on a session rolls it back to rev 0,
	// so at most seven edits are ever live and a delta's cost does not
	// grow with the length of the run.
	rollbackEvery = 8
	// hitEvery: about one operation in hitEvery is a cache hit.
	hitEvery = 5
)

// sessionShape is what the edit generator needs to know about a session's
// design: its sinks (for sink-indexed edits and local moves) and node
// count (for node-indexed edits).
type sessionShape struct {
	locX  []float64
	locY  []float64
	dieX  float64
	dieY  float64
	nodes int
}

func newSessionShape(bench string, nodes int) (sessionShape, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return sessionShape{}, err
	}
	bm, err := workload.Generate(spec)
	if err != nil {
		return sessionShape{}, err
	}
	sh := sessionShape{dieX: spec.DieX, dieY: spec.DieY, nodes: nodes}
	for _, s := range bm.Sinks {
		sh.locX = append(sh.locX, s.Loc.X)
		sh.locY = append(sh.locY, s.Loc.Y)
	}
	return sh, nil
}

// iop is one interactive operation.
type iop struct {
	Hit      int // design index for a cache hit, -1 for a session delta
	Sess     int // session index for a delta
	Rollback bool
	Edit     core.Edit
}

func (o iop) body() []byte {
	var b []byte
	var err error
	switch {
	case o.Hit >= 0:
		return flowBody(serve.FlowRequest{Bench: sessionBenches[o.Hit], Scheme: smartScheme})
	case o.Rollback:
		zero := 0
		b, err = json.Marshal(serve.SessionDeltaRequest{RollbackTo: &zero})
	default:
		b, err = json.Marshal(serve.SessionDeltaRequest{Edits: []core.Edit{o.Edit}})
	}
	if err != nil {
		panic(err)
	}
	return b
}

// opStream generates one client's interactive operations and tracks the
// edit state it leaves live on each of the client's sessions.
type opStream struct {
	rng    *rand.Rand
	client int
	shapes [4]sessionShape
	deltas [4]int
	live   [4][]core.Edit // edits applied since the session's last rollback
	rules  int
}

func newOpStream(seed int64, stream string, client int, shapes [4]sessionShape) *opStream {
	return &opStream{
		rng:    rand.New(rand.NewSource(derive(seed, stream, client))),
		client: client,
		shapes: shapes,
		rules:  tech.Tech45().NumRules(),
	}
}

// next returns the client's next operation.
func (s *opStream) next() iop {
	if s.rng.Intn(hitEvery) == 0 {
		return iop{Hit: s.rng.Intn(len(sessionBenches))}
	}
	k := 2*s.client + s.rng.Intn(2)
	s.deltas[k]++
	if s.deltas[k]%rollbackEvery == 0 {
		s.live[k] = nil
		return iop{Hit: -1, Sess: k, Rollback: true}
	}
	e := s.edit(k)
	s.live[k] = append(s.live[k], e)
	return iop{Hit: -1, Sess: k, Edit: e}
}

// state is the canonical edit state the session holds after the ops
// generated so far.
func (s *opStream) state(k int) []core.Edit { return core.CanonicalEdits(s.live[k]) }

// edit draws one single-edit delta for session k, cycling through all
// five edit ops at random.
func (s *opStream) edit(k int) core.Edit {
	sh := &s.shapes[k]
	r := s.rng
	switch r.Intn(5) {
	case 0: // a local placement ECO: move a sink up to 50 µm per axis
		i := r.Intn(len(sh.locX))
		return core.Edit{Op: core.OpMoveSink, Sink: i,
			X: clamp(sh.locX[i]+(r.Float64()-0.5)*100, 0, sh.dieX),
			Y: clamp(sh.locY[i]+(r.Float64()-0.5)*100, 0, sh.dieY)}
	case 1:
		return core.Edit{Op: core.OpSinkCap, Sink: r.Intn(len(sh.locX)), Cap: (1 + 3*r.Float64()) * 1e-15}
	case 2:
		return core.Edit{Op: core.OpSinkRule, Sink: r.Intn(len(sh.locX)), Rule: r.Intn(s.rules)}
	case 3:
		return core.Edit{Op: core.OpNodeRule, Node: r.Intn(sh.nodes), Rule: r.Intn(s.rules)}
	default:
		return core.Edit{Op: core.OpInSlew, InSlewPS: 30 + 30*r.Float64()}
	}
}

func clamp(v, lo, hi float64) float64 { return max(lo, min(hi, v)) }
