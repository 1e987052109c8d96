package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/tech"
	"smartndr/internal/workload"
)

// defaultMaxBodyBytes is the default request-body cap (Config.MaxBodyBytes).
// Typical flow and sweep requests are a few hundred bytes of JSON; the
// default leaves room for large inline specs while still bounding
// per-request memory. Deployments that accept bigger payloads raise it
// via -max-spec-bytes on the daemon.
const defaultMaxBodyBytes = 1 << 20

// FlowRequest is the wire form of POST /v1/flow: run one benchmark
// through synthesis and one rule-assignment scheme. Exactly one of
// Bench (a built-in cns01…cns08 name) or Spec (a custom generator spec)
// selects the workload.
type FlowRequest struct {
	Bench  string         `json:"bench,omitempty"`
	Spec   *workload.Spec `json:"spec,omitempty"`
	Scheme string         `json:"scheme,omitempty"` // default "smart-ndr"
	Tech   string         `json:"tech,omitempty"`   // tech45 (default) | tech65
	// TopK is K for the top-k scheme; 0 resolves to the flow default (2).
	TopK int `json:"top_k,omitempty"`
	// InSlewPS overrides the root input transition, in picoseconds.
	InSlewPS float64 `json:"in_slew_ps,omitempty"`
	// TimeoutMS caps this request's deadline; the server clamps it to
	// its configured maximum. 0 means the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxRegionSinks opts the run into partitioned hierarchical
	// construction when the workload exceeds it (see smartndr.HierConfig).
	// 0 builds flat regardless of size.
	MaxRegionSinks int `json:"max_region_sinks,omitempty"`
	// SkewSplit is the hierarchical intra-region skew-budget fraction;
	// 0 means the engine default (0.5). Only meaningful with
	// MaxRegionSinks.
	SkewSplit float64 `json:"skew_split,omitempty"`
	// Edits is a post-synthesis ECO state applied after the scheme (see
	// the session API, docs/service.md): the tree is built and optimized
	// unedited, then these edits land and metrics are re-evaluated. The
	// canonical key covers the canonicalized edit state.
	Edits []smartndr.Edit `json:"edits,omitempty"`
}

// SweepArm is one (scheme, corner) cell of a sweep: the scheme is
// applied to the shared synthesized tree and, when Corner names a
// standard analysis corner (typ|slow|fast), the result is additionally
// timed at that corner.
type SweepArm struct {
	Scheme string `json:"scheme"`
	Corner string `json:"corner,omitempty"`
}

// SweepRequest is the wire form of POST /v1/sweep: synthesize one tree
// and evaluate a batch of scheme×corner arms against it. Results come
// back in arm order regardless of execution interleaving.
type SweepRequest struct {
	Bench    string         `json:"bench,omitempty"`
	Spec     *workload.Spec `json:"spec,omitempty"`
	Tech     string         `json:"tech,omitempty"`
	Arms     []SweepArm     `json:"arms"`
	InSlewPS float64        `json:"in_slew_ps,omitempty"`
	// Workers bounds the arm fan-out; 0 uses the server's configured
	// worker count. Results are identical at any value.
	Workers   int `json:"workers,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// FlowResponse is the /v1/flow result body. The body is fully
// determined by the request's canonical key — cache hits replay these
// exact bytes — so it carries no timestamps or other volatile fields;
// cache outcome and timing travel in headers and spans instead.
type FlowResponse struct {
	Key      string             `json:"key"`
	Bench    string             `json:"bench"`
	Scheme   string             `json:"scheme"`
	Tech     string             `json:"tech"`
	Sinks    int                `json:"sinks"`
	Buffers  int                `json:"buffers"`
	Clusters int                `json:"clusters"`
	Metrics  smartndr.Metrics   `json:"metrics"`
	Stats    *smartndr.OptStats `json:"stats,omitempty"`
}

// CornerTiming is the per-corner timing view of a sweep arm.
type CornerTiming struct {
	Corner      string  `json:"corner"`
	Skew        float64 `json:"skew"`
	WorstSlew   float64 `json:"worst_slew"`
	SlewViol    int     `json:"slew_violations"`
	MaxInsDelay float64 `json:"max_ins_delay"`
}

// SweepArmResult is one arm's outcome, at the same index as its arm in
// the request.
type SweepArmResult struct {
	Scheme  string           `json:"scheme"`
	Metrics smartndr.Metrics `json:"metrics"`
	Corner  *CornerTiming    `json:"corner,omitempty"`
}

// SweepResponse is the /v1/sweep result body; like FlowResponse it is a
// pure function of the canonical key.
type SweepResponse struct {
	Key     string           `json:"key"`
	Bench   string           `json:"bench"`
	Tech    string           `json:"tech"`
	Sinks   int              `json:"sinks"`
	Buffers int              `json:"buffers"`
	Arms    []SweepArmResult `json:"arms"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// DecodeFlowRequest parses and validates a /v1/flow body. Decoding is
// strict — unknown fields and trailing garbage are errors — so a typoed
// knob fails loudly instead of silently running defaults.
func DecodeFlowRequest(data []byte) (*FlowRequest, error) {
	var req FlowRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// An explicit empty edit list means the same as no edits; normalize
	// so the round trip through omitempty serialization is lossless.
	if len(req.Edits) == 0 {
		req.Edits = nil
	}
	return &req, nil
}

// DecodeSweepRequest parses and validates a /v1/sweep body.
func DecodeSweepRequest(data []byte) (*SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	// A second token means trailing content after the JSON value.
	if _, err := dec.Token(); err == nil {
		return fmt.Errorf("serve: bad request body: trailing data after JSON value")
	}
	return nil
}

// Validate checks the request's shape without touching the engine.
func (r *FlowRequest) Validate() error {
	if err := validateWorkload(r.Bench, r.Spec); err != nil {
		return err
	}
	if _, err := smartndr.ParseScheme(r.Scheme); err != nil {
		return err
	}
	if _, err := resolveTech(r.Tech); err != nil {
		return err
	}
	if r.TopK < 0 {
		return fmt.Errorf("serve: negative top_k %d", r.TopK)
	}
	if r.InSlewPS < 0 {
		return fmt.Errorf("serve: negative in_slew_ps %g", r.InSlewPS)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
	}
	if r.MaxRegionSinks < 0 {
		return fmt.Errorf("serve: negative max_region_sinks %d", r.MaxRegionSinks)
	}
	if r.SkewSplit != 0 && (r.SkewSplit < 0 || r.SkewSplit >= 1) {
		return fmt.Errorf("serve: skew_split %g out of (0,1)", r.SkewSplit)
	}
	if len(r.Edits) > maxRequestEdits {
		return fmt.Errorf("serve: %d edits exceeds the %d-edit limit", len(r.Edits), maxRequestEdits)
	}
	for i, e := range r.Edits {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("serve: edit %d: %w", i, err)
		}
	}
	return nil
}

// maxRequestEdits bounds the edit list one request may carry; canonical
// states beyond it should live in a session, not a request body.
const maxRequestEdits = 4096

// Validate checks the sweep request's shape.
func (r *SweepRequest) Validate() error {
	if err := validateWorkload(r.Bench, r.Spec); err != nil {
		return err
	}
	if _, err := resolveTech(r.Tech); err != nil {
		return err
	}
	if len(r.Arms) == 0 {
		return fmt.Errorf("serve: sweep with no arms")
	}
	if len(r.Arms) > maxSweepArms {
		return fmt.Errorf("serve: %d arms exceeds the %d-arm limit", len(r.Arms), maxSweepArms)
	}
	for i, arm := range r.Arms {
		if _, err := smartndr.ParseScheme(arm.Scheme); err != nil {
			return fmt.Errorf("serve: arm %d: %w", i, err)
		}
		if arm.Corner != "" {
			if _, err := tech.CornerByName(arm.Corner); err != nil {
				return fmt.Errorf("serve: arm %d: %w", i, err)
			}
		}
	}
	if r.InSlewPS < 0 {
		return fmt.Errorf("serve: negative in_slew_ps %g", r.InSlewPS)
	}
	if r.Workers < 0 {
		return fmt.Errorf("serve: negative workers %d", r.Workers)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
	}
	return nil
}

// maxSweepArms bounds one sweep's fan-out so a single request cannot
// monopolize the service; batch beyond it with multiple requests.
const maxSweepArms = 64

func validateWorkload(bench string, spec *workload.Spec) error {
	switch {
	case bench == "" && spec == nil:
		return fmt.Errorf("serve: request needs bench or spec")
	case bench != "" && spec != nil:
		return fmt.Errorf("serve: bench and spec are mutually exclusive")
	case bench != "":
		if _, err := workload.ByName(bench); err != nil {
			return err
		}
	default:
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func resolveTech(name string) (*tech.Tech, error) {
	if name == "" {
		return tech.Tech45(), nil
	}
	return tech.ByName(name)
}

// resolveSpec returns the generator spec a request selects.
func resolveSpec(bench string, spec *workload.Spec) (workload.Spec, error) {
	if bench != "" {
		return workload.ByName(bench)
	}
	return *spec, nil
}

// workloadName names the request's workload for response bodies.
func workloadName(bench string, spec *workload.Spec) string {
	if bench != "" {
		return bench
	}
	return spec.Name
}

// flowConfig builds the engine configuration a flow request resolves
// to. The tracer is attached by the caller; everything here is
// semantic, so it all lands in the canonical key.
func (r *FlowRequest) flowConfig() (*smartndr.FlowConfig, error) {
	te, err := resolveTech(r.Tech)
	if err != nil {
		return nil, err
	}
	return &smartndr.FlowConfig{
		Tech:    te,
		Library: smartndr.DefaultLibraryFor(te),
		TopK:    r.TopK,
		InSlew:  r.InSlewPS * 1e-12,
		Hier: smartndr.HierConfig{
			MaxRegionSinks: r.MaxRegionSinks,
			SkewSplit:      r.SkewSplit,
		},
	}, nil
}

// sweepFlowConfig is flowConfig for sweeps (no per-request TopK).
func (r *SweepRequest) flowConfig() (*smartndr.FlowConfig, error) {
	te, err := resolveTech(r.Tech)
	if err != nil {
		return nil, err
	}
	return &smartndr.FlowConfig{
		Tech:    te,
		Library: smartndr.DefaultLibraryFor(te),
		InSlew:  r.InSlewPS * 1e-12,
	}, nil
}

// cornerTiming converts the engine's corner view to the wire form.
func cornerTiming(cm core.CornerMetrics) *CornerTiming {
	return &CornerTiming{
		Corner:      cm.Corner.Name,
		Skew:        cm.Skew,
		WorstSlew:   cm.WorstSlew,
		SlewViol:    cm.SlewViol,
		MaxInsDelay: cm.MaxInsDel,
	}
}
