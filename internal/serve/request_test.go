package serve

import (
	"strings"
	"testing"

	"smartndr/internal/workload"
)

func TestDecodeFlowRequestValid(t *testing.T) {
	req, err := DecodeFlowRequest([]byte(`{"bench":"cns01","scheme":"smart-ndr","tech":"tech45"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Bench != "cns01" || req.Scheme != "smart-ndr" {
		t.Fatalf("decoded %+v", req)
	}
}

func TestDecodeFlowRequestSpec(t *testing.T) {
	req, err := DecodeFlowRequest([]byte(
		`{"spec":{"name":"x","sinks":40,"die_x":900,"die_y":900,"seed":7,"dist":0,"cap_min":1e-15,"cap_max":3e-15}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Spec == nil || req.Spec.Sinks != 40 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestDecodeFlowRequestRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"bench":"cns01","bogus":1}`,
		"trailing data":    `{"bench":"cns01"} {"again":true}`,
		"no workload":      `{}`,
		"both workloads":   `{"bench":"cns01","spec":{"name":"x","sinks":4,"die_x":100,"die_y":100,"seed":1,"cap_min":1e-15,"cap_max":2e-15}}`,
		"unknown bench":    `{"bench":"nope"}`,
		"unknown scheme":   `{"bench":"cns01","scheme":"psychic"}`,
		"unknown tech":     `{"bench":"cns01","tech":"tech7"}`,
		"negative topk":    `{"bench":"cns01","top_k":-1}`,
		"negative slew":    `{"bench":"cns01","in_slew_ps":-4}`,
		"negative timeout": `{"bench":"cns01","timeout_ms":-1}`,
		"not json":         `hello`,
	}
	for name, body := range cases {
		if _, err := DecodeFlowRequest([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %s", name, body)
		}
	}
}

func TestDecodeSweepRequestRejects(t *testing.T) {
	cases := map[string]string{
		"no arms":          `{"bench":"cns01"}`,
		"bad arm scheme":   `{"bench":"cns01","arms":[{"scheme":"psychic"}]}`,
		"bad arm corner":   `{"bench":"cns01","arms":[{"scheme":"smart","corner":"cryogenic"}]}`,
		"negative workers": `{"bench":"cns01","workers":-2,"arms":[{"scheme":"smart"}]}`,
	}
	for name, body := range cases {
		if _, err := DecodeSweepRequest([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %s", name, body)
		}
	}
	// Arm-count cap.
	arms := make([]string, maxSweepArms+1)
	for i := range arms {
		arms[i] = `{"scheme":"smart"}`
	}
	over := `{"bench":"cns01","arms":[` + strings.Join(arms, ",") + `]}`
	if _, err := DecodeSweepRequest([]byte(over)); err == nil {
		t.Errorf("decode accepted %d arms", maxSweepArms+1)
	}
}

func TestFlowKeyStableAcrossEquivalentRequests(t *testing.T) {
	fr := &FlowRunner{}
	base := &FlowRequest{Bench: "cns01", Scheme: "smart-ndr"}
	k1, err := fr.FlowKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// The scheme alias and an explicit default tech must map to the same
	// content address — they resolve to the same run.
	alias := &FlowRequest{Bench: "cns01", Scheme: "smart", Tech: "tech45"}
	k2, err := fr.FlowKey(alias)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent requests got different keys:\n%s\n%s", k1, k2)
	}
	// Workers and timeout are non-semantic.
	k3, err := fr.FlowKey(&FlowRequest{Bench: "cns01", Scheme: "smart-ndr", TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Error("timeout_ms changed the content address")
	}
	// A different scheme must not collide.
	k4, err := fr.FlowKey(&FlowRequest{Bench: "cns01", Scheme: "blanket"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k4 {
		t.Error("different schemes share a content address")
	}
}

func TestSweepKeySensitivity(t *testing.T) {
	fr := &FlowRunner{}
	base := &SweepRequest{Bench: "cns01", Arms: []SweepArm{{Scheme: "smart"}, {Scheme: "blanket", Corner: "slow"}}}
	k1, err := fr.SweepKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// Workers are excluded: results are invariant under fan-out width.
	k2, err := fr.SweepKey(&SweepRequest{Bench: "cns01", Workers: 8,
		Arms: []SweepArm{{Scheme: "smart"}, {Scheme: "blanket", Corner: "slow"}}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("workers changed the sweep content address")
	}
	// Arm order is semantic (results come back in arm order).
	k3, err := fr.SweepKey(&SweepRequest{Bench: "cns01",
		Arms: []SweepArm{{Scheme: "blanket", Corner: "slow"}, {Scheme: "smart"}}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("reordered arms share a content address")
	}
}

func TestResolveSpecAndWorkloadName(t *testing.T) {
	spec, err := resolveSpec("cns01", nil)
	if err != nil || spec.Sinks == 0 {
		t.Fatalf("resolveSpec(cns01) = %+v, %v", spec, err)
	}
	custom := &workload.Spec{Name: "mine", Sinks: 10}
	spec, err = resolveSpec("", custom)
	if err != nil || spec.Name != "mine" {
		t.Fatalf("resolveSpec(custom) = %+v, %v", spec, err)
	}
	if workloadName("cns01", nil) != "cns01" || workloadName("", custom) != "mine" {
		t.Error("workloadName mismatch")
	}
}
