package smartndr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"strings"
	"sync"

	"smartndr/internal/cell"
	"smartndr/internal/core"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/hier"
	"smartndr/internal/obs"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
	"smartndr/internal/variation"
	"smartndr/internal/workload"
)

// Re-exported types: the full engine lives in internal packages; these
// aliases are the supported public surface.
type (
	// Sink is a clock endpoint (location + pin capacitance).
	Sink = ctree.Sink
	// Point is a die location in microns.
	Point = geom.Point
	// Tree is a synthesized clock tree.
	Tree = ctree.Tree
	// Tech is a technology description.
	Tech = tech.Tech
	// Library is a clock buffer library.
	Library = cell.Library
	// Metrics is the evaluation record (power, skew, slew, wirelength...).
	Metrics = core.Metrics
	// OptStats reports what the smart optimizer did.
	OptStats = core.Stats
	// BenchSpec describes a generated benchmark.
	BenchSpec = workload.Spec
	// Edit is one serialized session delta (sink move, pin-cap change,
	// per-edge rule override, input-slew override). See internal/core.
	Edit = core.Edit
	// VariationParams configure Monte Carlo robustness analysis.
	VariationParams = variation.Params
	// VariationStats summarize a Monte Carlo run.
	VariationStats = variation.Stats
	// Tracer records hierarchical spans and metrics of a flow run. A nil
	// tracer disables instrumentation at no cost.
	Tracer = obs.Tracer
	// TraceSink receives finished span events.
	TraceSink = obs.Sink
	// SpanEvent is one finished span as delivered to a sink.
	SpanEvent = obs.SpanEvent
	// TraceCollector is an in-memory sink for post-run inspection.
	TraceCollector = obs.Collector
)

// NewTracer returns a tracer emitting to the sink; a nil sink yields a
// nil (disabled) tracer. Attach it via FlowConfig.Tracer.
func NewTracer(sink TraceSink) *Tracer { return obs.New(sink) }

// NewJSONLSink streams span events as JSON lines to w.
func NewJSONLSink(w io.Writer) TraceSink { return obs.NewJSONL(w) }

// NewTreeSink renders the span tree to w when the tracer is closed.
func NewTreeSink(w io.Writer) TraceSink { return obs.NewTree(w) }

// NewTraceCollector returns an in-memory sink; its Events feed
// report.TimingTable or custom analysis.
func NewTraceCollector() *TraceCollector { return obs.NewCollector() }

// SpanObserver is a sink tee that folds every completed span into a
// per-path latency histogram on its way to the next sink (nil for
// aggregation only). Snapshot exposes the distributions.
type SpanObserver = obs.SpanObserver

// HistogramSnapshot is a point-in-time copy of one latency histogram,
// with interpolated quantiles via Quantile.
type HistogramSnapshot = obs.HistogramSnapshot

// NewSpanObserver returns a SpanObserver forwarding to next (nil:
// aggregate only). Use it as the tracer's sink to get per-phase
// latency distributions from an instrumented flow.
func NewSpanObserver(next TraceSink) *SpanObserver { return obs.NewSpanObserver(next) }

// Scheme selects a routing-rule assignment policy.
type Scheme int

const (
	// SchemeAllDefault routes every clock edge at minimum width/spacing.
	// Cheapest possible capacitance; transitions and variation robustness
	// are whatever they happen to be.
	SchemeAllDefault Scheme = iota
	// SchemeBlanket applies the technology's blanket NDR (2W2S) to every
	// edge — the conventional flow the paper argues overpays.
	SchemeBlanket
	// SchemeTopK applies the blanket NDR to the top K buffer levels and
	// the default rule below — the rule-of-thumb baseline.
	SchemeTopK
	// SchemeSmart runs the paper's per-edge assignment: greedy downgrade
	// to the cheapest rule class meeting slew and skew, plus skew repair.
	SchemeSmart
	// SchemeTrunk applies the blanket NDR to the clock trunk (all stages
	// that still drive buffers) and the default rule to the leaf stages —
	// the designer rule-of-thumb baseline.
	SchemeTrunk
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeAllDefault:
		return "all-default"
	case SchemeBlanket:
		return "blanket-ndr"
	case SchemeTopK:
		return "top-k"
	case SchemeSmart:
		return "smart-ndr"
	case SchemeTrunk:
		return "trunk-ndr"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme maps a scheme name to its Scheme. It accepts the String
// names (smart-ndr, blanket-ndr, …) and the short aliases (smart,
// blanket, …) in any case; empty selects SchemeSmart.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "", "smart", "smart-ndr":
		return SchemeSmart, nil
	case "all-default", "default":
		return SchemeAllDefault, nil
	case "blanket", "blanket-ndr":
		return SchemeBlanket, nil
	case "top-k", "topk":
		return SchemeTopK, nil
	case "trunk", "trunk-ndr":
		return SchemeTrunk, nil
	default:
		return 0, fmt.Errorf("smartndr: unknown scheme %q", name)
	}
}

// HierConfig opts a flow into partitioned hierarchical construction for
// large sink sets. The zero value disables it: every RunSpecEdits
// builds one flat tree regardless of size.
type HierConfig struct {
	// MaxRegionSinks, when positive, enables the hierarchical pipeline
	// for specs larger than the bound and caps the sink count of one
	// region (see internal/hier). Specs at or under the bound still build
	// flat, so small runs are unaffected by opting in.
	MaxRegionSinks int `json:"max_region_sinks,omitempty"`
	// SkewSplit is the fraction of the skew budget granted to
	// intra-region skew (default 0.5); the rest absorbs inter-region
	// stitching error.
	SkewSplit float64 `json:"skew_split,omitempty"`
}

// FlowConfig parameterizes a Flow. The zero value (or nil pointer to
// NewFlow) selects the 45 nm-class defaults.
type FlowConfig struct {
	Tech *Tech // nil → tech.Tech45()
	// Library is the buffer library; nil → DefaultLibraryFor(Tech), which
	// is shared by every flow on the same node class. The engine only
	// reads a library, and callers must treat one as read-only once a
	// flow holds it.
	Library *Library
	CTS     cts.Options // tree construction knobs
	Opt     core.Config // smart-optimizer knobs
	// TopK is K for SchemeTopK. Zero is the "unset" sentinel and resolves
	// to the default of 2 — an explicit K=0 via Apply(b, SchemeTopK) is
	// therefore not expressible here; use ApplyTopK(b, 0), which honors
	// K=0 literally (every edge on the default rule), for K sweeps.
	TopK int
	// InSlew is the root input transition (default sta.DefaultInSlew,
	// 40 ps). It also resolves Opt.InSlew left at 0, and every Monte Carlo
	// run uses it, so the optimizer and the variation analysis see the
	// slew the flow evaluates at.
	InSlew float64
	// Tracer, when non-nil, instruments every flow entry point with
	// hierarchical spans (build phases, optimizer passes, STA splits,
	// Monte Carlo trials) and run counters. See internal/obs; construct
	// with NewTracer and a sink. Nil disables instrumentation at no cost.
	Tracer *Tracer
	// Workers bounds parallel sections (Monte Carlo trials, hierarchical
	// region builds, sharded benchmark generation): 0 uses
	// runtime.GOMAXPROCS(0), 1 forces serial execution. Results are
	// bit-identical for every value — each parallel unit draws from an
	// RNG substream derived from (Seed, unit index) alone and lands in an
	// index-addressed slot. See docs/performance.md.
	Workers int
	// Hier opts RunSpecEdits into partitioned hierarchical construction
	// for specs larger than Hier.MaxRegionSinks. Zero value: always flat.
	Hier HierConfig
}

// DefaultLibraryFor returns the built-in buffer library matching the
// technology: the 65 nm library for 65 nm-class nodes (Tech.Node == 65,
// with a name-based fallback for legacy Tech values), the 45 nm library
// otherwise.
//
// The returned library is one shared, read-only instance per node class,
// generated once together with its canonical JSON, so content keys never
// re-marshal it. Do not modify it; to vary a library, build a private one
// with cell.Generate (or cell.Default45) and set FlowConfig.Library.
func DefaultLibraryFor(te *Tech) *Library {
	if te != nil && (te.Node == 65 || (te.Node == 0 && te.Name == "tech65")) {
		return default65().lib
	}
	return default45().lib
}

// sharedLibrary is one built-in library and its canonical JSON.
type sharedLibrary struct {
	lib  *Library
	json []byte
}

var (
	default45 = sync.OnceValue(func() sharedLibrary { return newSharedLibrary(cell.Default45()) })
	default65 = sync.OnceValue(func() sharedLibrary { return newSharedLibrary(cell.Default65()) })
)

func newSharedLibrary(lib *Library) sharedLibrary {
	b, err := json.Marshal(lib)
	if err != nil {
		panic("smartndr: built-in library does not marshal: " + err.Error())
	}
	return sharedLibrary{lib: lib, json: b}
}

// libraryJSON returns json.Marshal(lib), reusing the memoized bytes when
// lib is one of the shared default libraries.
func libraryJSON(lib *Library) ([]byte, error) {
	for _, shared := range [...]func() sharedLibrary{default45, default65} {
		if sl := shared(); sl.lib == lib {
			return sl.json, nil
		}
	}
	return json.Marshal(lib)
}

// Flow runs clock-tree synthesis and rule assignment.
type Flow struct {
	cfg FlowConfig
}

// NewFlow returns a flow with defaults filled in.
func NewFlow(cfg *FlowConfig) *Flow {
	c := FlowConfig{}
	if cfg != nil {
		c = *cfg
	}
	if c.Tech == nil {
		c.Tech = tech.Tech45()
	}
	if c.Library == nil {
		c.Library = DefaultLibraryFor(c.Tech)
	}
	if c.TopK == 0 {
		c.TopK = 2
	}
	if c.InSlew == 0 {
		c.InSlew = sta.DefaultInSlew
	}
	if c.Opt.InSlew == 0 {
		c.Opt.InSlew = c.InSlew
	}
	return &Flow{cfg: c}
}

// Config returns the resolved configuration.
func (f *Flow) Config() FlowConfig { return f.cfg }

// Built is a synthesized clock tree ready for scheme application. The
// embedded tree carries the blanket rule on every edge.
type Built struct {
	Tree        *Tree
	NumClusters int
	Buffers     int
}

// Build synthesizes the buffered, zero-skew clock tree for the sinks.
func (f *Flow) Build(sinks []Sink, src Point) (*Built, error) {
	if len(sinks) == 0 {
		return nil, errors.New("smartndr: no sinks")
	}
	sp := f.cfg.Tracer.Start("flow.build", obs.I("sinks", len(sinks)))
	defer sp.End()
	f.cfg.Tracer.Gauge("flow.sink_count", float64(len(sinks)))
	opt := f.cfg.CTS
	if opt.Tracer == nil {
		opt.Tracer = f.cfg.Tracer
	}
	res, err := cts.Build(sinks, src, f.cfg.Tech, f.cfg.Library, opt)
	if err != nil {
		return nil, err
	}
	res.Tree.SetAllRules(f.cfg.Tech.BlanketRule)
	return &Built{
		Tree:        res.Tree,
		NumClusters: res.NumClusters,
		Buffers:     res.Tree.BufferCount(),
	}, nil
}

// Result is one scheme applied to a built tree.
type Result struct {
	Scheme  Scheme
	Tree    *Tree // the scheme's own clone; the Built tree is untouched
	Metrics Metrics
	// Stats is non-nil for SchemeSmart.
	Stats *OptStats
}

// Apply evaluates a rule-assignment scheme on a clone of the built tree.
func (f *Flow) Apply(b *Built, scheme Scheme) (*Result, error) {
	if b == nil || b.Tree == nil {
		return nil, errors.New("smartndr: nil built tree")
	}
	sp := f.cfg.Tracer.Start("flow.apply", obs.S("scheme", scheme.String()))
	defer sp.End()
	te, lib := f.cfg.Tech, f.cfg.Library
	t := b.Tree.Clone()
	res := &Result{Scheme: scheme, Tree: t}
	switch scheme {
	case SchemeAllDefault:
		core.AssignAll(t, te.DefaultRule)
	case SchemeBlanket:
		core.AssignAll(t, te.BlanketRule)
	case SchemeTopK:
		core.AssignTopLevels(t, te, f.cfg.TopK)
	case SchemeTrunk:
		core.AssignTrunk(t, te)
	case SchemeSmart:
		core.AssignAll(t, te.BlanketRule)
		opt := f.cfg.Opt
		if opt.Tracer == nil {
			opt.Tracer = f.cfg.Tracer
		}
		stats, err := core.Optimize(t, te, lib, opt)
		if err != nil {
			return nil, err
		}
		res.Stats = stats
	default:
		return nil, fmt.Errorf("smartndr: unknown scheme %d", int(scheme))
	}
	m, _, err := core.EvaluateTr(t, te, lib, f.cfg.InSlew, f.cfg.Tracer)
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

// RunSpecEdits is the one-call, context-accepting form of the flow a
// long-running service uses: generate the benchmark described by spec,
// synthesize the clock tree, apply the scheme, and then land the
// session edits (nil for a plain run). The context is honored at phase
// granularity — it is checked before generation, before building, and
// before applying, so a cancelled or expired request stops at the next
// phase boundary rather than mid-phase (the engine phases themselves
// are deterministic and uninterruptible).
//
// Edits never influence construction or optimization — they model
// post-synthesis ECOs: the canonical edit state is applied to the
// result tree and the metrics re-evaluated. This is the cold reference
// the session differential harness compares warm deltas against: a
// session sitting at the same canonical edit state must return these
// bytes.
func (f *Flow) RunSpecEdits(ctx context.Context, spec BenchSpec, scheme Scheme, edits []Edit) (*Built, *Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	bm, err := workload.GenerateP(spec, f.cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var (
		built *Built
		res   *Result
	)
	if h := f.cfg.Hier; h.MaxRegionSinks > 0 && len(bm.Sinks) > h.MaxRegionSinks {
		if built, res, err = f.RunHier(ctx, bm.Sinks, bm.Src, scheme); err != nil {
			return nil, nil, err
		}
	} else {
		if built, err = f.Build(bm.Sinks, bm.Src); err != nil {
			return nil, nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if res, err = f.Apply(built, scheme); err != nil {
			return nil, nil, err
		}
	}
	canon := core.CanonicalEdits(edits)
	if len(canon) == 0 {
		return built, res, nil
	}
	sp := f.cfg.Tracer.Start("flow.apply_edits", obs.I("edits", len(canon)))
	defer sp.End()
	te, lib := f.cfg.Tech, f.cfg.Library
	eco, err := core.NewECO(res.Tree, te)
	if err != nil {
		return nil, nil, err
	}
	if err := eco.SetState(canon, nil); err != nil {
		return nil, nil, err
	}
	m, _, err := core.EvaluateTr(res.Tree, te, lib, eco.InSlew(f.cfg.InSlew), f.cfg.Tracer)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics = m
	return built, res, nil
}

// RunHier builds the clock tree with the partitioned hierarchical
// pipeline (see internal/hier): sinks are split into regions of at most
// Hier.MaxRegionSinks, each region is synthesized (and, for SchemeSmart,
// rule-optimized) independently on the flow's worker pool, and the
// region trees are stitched under a delay-balancing top tree, then
// globally skew-repaired. The result is bit-identical at any Workers
// value. For SchemeSmart and SchemeBlanket the returned tree carries the
// scheme natively; the remaining schemes are realized by re-assigning
// rules on the stitched tree, exactly as Apply does on a flat build.
//
// Unlike the flat Build/Apply split, the hierarchical pipeline fuses
// construction and optimization (region insertion delays must be
// measured *after* optimization for the top tree to balance them), so
// Built.Tree and Result.Tree are the same tree here.
func (f *Flow) RunHier(ctx context.Context, sinks []Sink, src Point, scheme Scheme) (*Built, *Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := f.cfg.Tracer.Start("flow.run_hier",
		obs.I("sinks", len(sinks)), obs.S("scheme", scheme.String()))
	defer sp.End()
	f.cfg.Tracer.Gauge("flow.sink_count", float64(len(sinks)))
	te, lib := f.cfg.Tech, f.cfg.Library
	hcfg := hier.Config{
		MaxRegionSinks: f.cfg.Hier.MaxRegionSinks,
		SkewSplit:      f.cfg.Hier.SkewSplit,
		Smart:          scheme == SchemeSmart,
		Workers:        f.cfg.Workers,
		InSlew:         f.cfg.InSlew,
		CTS:            f.cfg.CTS,
		Opt:            f.cfg.Opt,
		Tracer:         f.cfg.Tracer,
	}
	hres, err := hier.Build(ctx, sinks, src, te, lib, hcfg)
	if err != nil {
		return nil, nil, err
	}
	t := hres.Tree
	res := &Result{Scheme: scheme, Tree: t, Stats: hres.Opt}
	switch scheme {
	case SchemeSmart, SchemeBlanket:
		// Carried natively by the hierarchical build.
	case SchemeAllDefault:
		core.AssignAll(t, te.DefaultRule)
	case SchemeTopK:
		core.AssignTopLevels(t, te, f.cfg.TopK)
	case SchemeTrunk:
		core.AssignTrunk(t, te)
	default:
		return nil, nil, fmt.Errorf("smartndr: unknown scheme %d", int(scheme))
	}
	m, _, err := core.EvaluateTr(t, te, lib, f.cfg.InSlew, f.cfg.Tracer)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics = m
	built := &Built{
		Tree:        t,
		NumClusters: hres.NumRegions,
		Buffers:     t.BufferCount(),
	}
	return built, res, nil
}

// flowKeyVersion prefixes every canonical run serialization, plain and
// edited runs alike (the Edits field is omitempty, so the two still hash
// apart). Bump it whenever the key format (or anything about result
// semantics) changes so stale content-addressed cache entries can never
// alias new results; the golden-key regression test pins the current
// addresses.
const flowKeyVersion = "smartndr/flow/v5"

// The canonical serialization of everything that determines a
// RunSpecEdits result is one JSON object with these fields, in order:
//
//	{"v", "spec", "tech", "library", "scheme", "top_k", "in_slew", "cts",
//	 "opt", "hier", "edits"}
//
// the benchmark spec, the full technology and buffer library, the scheme,
// and every resolved engine knob. Tracer fields and Workers are
// deliberately absent — instrumentation and throughput knobs never change
// results (the determinism suite proves it), so two requests differing
// only there must share a content address. keyHead and keyTail marshal
// the fields around the technology and library; writeKeyHead and
// writeKeyTail splice the four parts into exactly the bytes one
// json.Marshal of the whole object yields, so the shared library's
// memoized JSON can stand in for a fresh marshal.
type keyHead struct {
	V    string    `json:"v"`
	Spec BenchSpec `json:"spec"`
}

type keyTail struct {
	Scheme int         `json:"scheme"`
	TopK   int         `json:"top_k"`
	InSlew float64     `json:"in_slew"`
	CTS    cts.Options `json:"cts"`
	Opt    core.Config `json:"opt"`
	Hier   HierConfig  `json:"hier"`
	// Edits is the canonical session edit state, nil for plain runs so
	// the field vanishes from edit-free serializations.
	Edits []core.Edit `json:"edits,omitempty"`
}

// writeRunKey writes the canonical run serialization to w.
func (f *Flow) writeRunKey(w io.Writer, spec BenchSpec, scheme Scheme, edits []Edit) error {
	if err := f.writeKeyHead(w, spec); err != nil {
		return err
	}
	return f.writeKeyTail(w, scheme, edits)
}

// writeKeyHead writes the serialization up to and including the library:
// the part a session fixes once it is open.
func (f *Flow) writeKeyHead(w io.Writer, spec BenchSpec) error {
	head, err := json.Marshal(keyHead{V: flowKeyVersion, Spec: spec})
	if err != nil {
		return err
	}
	te, err := json.Marshal(f.cfg.Tech)
	if err != nil {
		return err
	}
	lib, err := libraryJSON(f.cfg.Library)
	if err != nil {
		return err
	}
	// Drop head's closing brace; the tail closes the object.
	return writeAll(w, head[:len(head)-1], []byte(`,"tech":`), te, []byte(`,"library":`), lib)
}

// writeKeyTail writes the rest of the serialization: the scheme, the
// resolved knobs and the canonical edits.
func (f *Flow) writeKeyTail(w io.Writer, scheme Scheme, edits []Edit) error {
	tail := keyTail{
		Scheme: int(scheme),
		TopK:   f.cfg.TopK,
		InSlew: f.cfg.InSlew,
		CTS:    f.cfg.CTS,
		Opt:    f.cfg.Opt,
		Hier:   f.cfg.Hier,
		Edits:  core.CanonicalEdits(edits),
	}
	// Zero the non-semantic fields (a nil and a live tracer must
	// serialize identically).
	tail.CTS.Tracer = nil
	tail.Opt.Tracer = nil
	rest, err := json.Marshal(tail)
	if err != nil {
		return err
	}
	rest[0] = ',' // the tail continues the head's object
	return writeAll(w, rest)
}

func writeAll(w io.Writer, parts ...[]byte) error {
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// hexSum finishes a content-address hash.
func hexSum(h hash.Hash) string {
	var sum [sha256.Size]byte
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h.Sum(sum[:0]))
	return string(out[:])
}

// CanonicalRunEdits returns the canonical byte serialization hashed by
// CanonicalKeyEdits, exposed so tests and tools can inspect exactly what
// the content address covers. The edits (nil for a plain run) are
// canonicalized first, so every edit sequence reaching the same state
// serializes — and hashes — identically. With no surviving edits the
// serialization is a plain run's.
func (f *Flow) CanonicalRunEdits(spec BenchSpec, scheme Scheme, edits []Edit) ([]byte, error) {
	var b bytes.Buffer
	if err := f.writeRunKey(&b, spec, scheme, edits); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// CanonicalKeyEdits returns the content address of a RunSpecEdits
// outcome: the SHA-256 (hex) of the canonical serialization of (spec,
// technology, library, scheme, resolved knobs, edits). Identical keys
// mean byte-identical results, which is what makes the address safe to
// use as a cache key and a cross-run dedup handle. Every session state
// has one — two sessions (or a session and a cold run) in the same edit
// state share it. The serialization streams into the hash; it is never
// assembled in memory.
func (f *Flow) CanonicalKeyEdits(spec BenchSpec, scheme Scheme, edits []Edit) (string, error) {
	h := sha256.New()
	if err := f.writeRunKey(h, spec, scheme, edits); err != nil {
		return "", err
	}
	return hexSum(h), nil
}

// ApplyTopK evaluates the TopK scheme at a specific K (for sweeps). K is
// honored literally — ApplyTopK(b, 0) is the supported way to measure an
// all-default assignment inside a K sweep (FlowConfig.TopK treats 0 as
// "unset").
func (f *Flow) ApplyTopK(b *Built, k int) (*Result, error) {
	if b == nil || b.Tree == nil {
		return nil, errors.New("smartndr: nil built tree")
	}
	sp := f.cfg.Tracer.Start("flow.apply_topk", obs.I("k", k))
	defer sp.End()
	te, lib := f.cfg.Tech, f.cfg.Library
	t := b.Tree.Clone()
	core.AssignTopLevels(t, te, k)
	m, _, err := core.EvaluateTr(t, te, lib, f.cfg.InSlew, f.cfg.Tracer)
	if err != nil {
		return nil, err
	}
	return &Result{Scheme: SchemeTopK, Tree: t, Metrics: m}, nil
}

// RepairSkew balances a result tree to the skew target by wire snaking
// (already integrated in SchemeSmart; exposed for baseline conditioning).
func (f *Flow) RepairSkew(t *Tree, targetSkew float64) error {
	_, err := core.RepairSkew(t, f.cfg.Tech, f.cfg.Library, f.cfg.InSlew, targetSkew, 25)
	return err
}

// RealizeSchedule applies a useful-skew schedule: sink i is balanced to
// arrive `targets[i]` later than the common base (indexed by sink order).
// Schedules should be bank-granular — per-flip-flop offsets inside one
// buffer stage are not realizable with wire alone.
func (f *Flow) RealizeSchedule(t *Tree, targets []float64, tol float64) error {
	for round := 0; round < 3; round++ {
		st, err := core.RepairToTargets(t, f.cfg.Tech, f.cfg.Library, f.cfg.InSlew, targets, tol, 40)
		if err != nil {
			return err
		}
		if st.Converged {
			return nil
		}
	}
	return errors.New("smartndr: schedule not realizable with wire snaking at this tolerance")
}

// AuditEM lists the tree's electromigration width-floor violations under
// the default 45 nm-class current-density rule.
func (f *Flow) AuditEM(t *Tree) ([]core.EMViolation, error) {
	return core.AuditEM(t, f.cfg.Tech, f.cfg.Library, f.cfg.InSlew, core.DefaultEMLimit())
}

// EnforceEM upgrades EM-violating edges to their width floors.
func (f *Flow) EnforceEM(t *Tree) (int, error) {
	return core.EnforceEM(t, f.cfg.Tech, f.cfg.Library, f.cfg.InSlew, core.DefaultEMLimit())
}

// EvaluateCorners analyzes the tree at the standard three corners.
func (f *Flow) EvaluateCorners(t *Tree) (*core.MultiCornerReport, error) {
	return core.EvaluateCorners(t, f.cfg.Tech, f.cfg.Library, f.cfg.InSlew, tech.StandardCorners())
}

// Evaluate recomputes metrics for a tree under this flow's technology.
func (f *Flow) Evaluate(t *Tree) (Metrics, error) {
	m, _, err := core.EvaluateTr(t, f.cfg.Tech, f.cfg.Library, f.cfg.InSlew, f.cfg.Tracer)
	return m, err
}

// Timing exposes the underlying STA result of a tree (arrivals, slews,
// stage loads) for inspection and custom reports.
func (f *Flow) Timing(t *Tree) (*sta.Result, error) {
	return sta.NewIncremental(f.cfg.Tech, f.cfg.Library).Full(t, f.cfg.InSlew, nil, f.cfg.Tracer)
}

// MonteCarlo runs process-variation analysis on a tree at the flow's
// input slew. When the params leave Workers at 0, the flow's configured
// value applies.
func (f *Flow) MonteCarlo(t *Tree, p VariationParams) (*VariationStats, error) {
	if p.Workers == 0 {
		p.Workers = f.cfg.Workers
	}
	return variation.MonteCarlo(t, f.cfg.Tech, f.cfg.Library, f.cfg.InSlew, p, f.cfg.Tracer)
}

// MaxTopK returns the deepest meaningful K for TopK sweeps on a built
// tree (K beyond this is equivalent to SchemeBlanket).
func (f *Flow) MaxTopK(b *Built) int { return core.MaxStageLevel(b.Tree) + 1 }

// Benchmark generates a built-in benchmark by name (cns01…cns08).
func Benchmark(name string) (*workload.Benchmark, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.Generate(spec)
}

// GenerateBenchmark produces a benchmark from a custom spec.
func GenerateBenchmark(spec BenchSpec) (*workload.Benchmark, error) {
	return workload.Generate(spec)
}

// Suite returns the specs of all built-in benchmarks.
func Suite() []BenchSpec { return workload.CNSSuite() }
