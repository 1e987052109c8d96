package serve

import (
	"testing"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/workload"
)

// TestGoldenKeysUnchangedByEditSupport pins the content addresses of
// edit-free flow, sweep, and batch requests under flow key version v7.
// Edit-free requests must keep producing exactly these hashes: the edits
// field is omitempty in the canonical serialization, so session support
// never moves a plain run's address. The addresses were re-pinned four
// times, deliberately: when the result-neutral incremental-STA switch left
// the serialized optimizer config and the key version went from v2
// (plain) / v3 (edited) to a single v4; when the optimizer's input slew
// began resolving from the flow's (so the serialized optimizer config
// carries it) and the version went to v5; when the topology knob left
// the serialized cts options (bipartition is the only topology; every
// tree is unchanged) and the version went to v6; and when the engine
// settings no caller set (the optimizer's slew safety, pass and repair
// bounds and edge shift cap, the builder's cap fractions and reference
// slew) became constants at the values they always took, leaving the
// serialized cts options and optimizer config, and the version went to
// v7. If this test fails, a serialization change silently invalidated
// every deployed cache.
func TestGoldenKeysUnchangedByEditSupport(t *testing.T) {
	fr := &FlowRunner{}
	spec := workload.Spec{Name: "gold", Dist: workload.Uniform, Sinks: 48,
		DieX: 900, DieY: 700, CapMin: 1e-15, CapMax: 4e-15, Seed: 7}
	flows := []struct {
		req  *FlowRequest
		want string
	}{
		{&FlowRequest{Bench: "cns01", Scheme: "smart-ndr"},
			"df1a2817da753bb5834af9773b4a73133e65107d3b05ad88bdb9b796c55d47ef"},
		{&FlowRequest{Bench: "cns03", Scheme: "blanket-ndr", Tech: "tech65", TopK: 3, InSlewPS: 60},
			"aa1455e4b376fe988008ac0a0bd2edcd0004d9be01e8be7a9c5d0c175a772af0"},
		{&FlowRequest{Spec: &spec, Scheme: "top-k", TopK: 4},
			"66b1d05a4c5ea6dd2c9fa9b97b5ed0847ac917e5f74372969d92c7f3c3ca9c30"},
		{&FlowRequest{Spec: &spec, Scheme: "smart-ndr", MaxRegionSinks: 32, SkewSplit: 0.6},
			"e6c55a1baeec6b02de21b8a0a4759b1d6d48b8ddf8bed0743b0991da9370cec4"},
	}
	for i, c := range flows {
		got, err := fr.FlowKey(c.req)
		if err != nil {
			t.Fatalf("flow[%d]: %v", i, err)
		}
		if got != c.want {
			t.Errorf("flow[%d] key = %s, want golden %s", i, got, c.want)
		}
	}

	sw := &SweepRequest{Bench: "cns02", Arms: []SweepArm{
		{Scheme: "smart-ndr"}, {Scheme: "blanket-ndr", Corner: "slow"}}, InSlewPS: 50}
	got, err := fr.SweepKey(sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := "aae033484103621bbc5019334c18708593e542d6fc3f319670615628c792848b"; got != want {
		t.Errorf("sweep key = %s, want golden %s", got, want)
	}

	k0, err := fr.FlowKey(flows[0].req)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := fr.FlowKey(flows[2].req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := batchKey([]string{k0, k2}),
		"682366e066103cc1c281ae3249947a738ca4c13716f81c0a2c1fef5facb4c91c"; got != want {
		t.Errorf("batch key = %s, want golden %s", got, want)
	}
}

// TestEditKeysVersioned checks the other half of the key contract: an
// absent, nil, or canonically-empty edit list all land on the plain run's
// address, while any real edit state moves to a distinct address (the
// edits field is serialized only when non-empty) that is itself
// insensitive to edit-list spelling (ordering, shadowed duplicates).
func TestEditKeysVersioned(t *testing.T) {
	fr := &FlowRunner{}
	base := FlowRequest{Bench: "cns01", Scheme: "smart-ndr"}
	baseKey, err := fr.FlowKey(&base)
	if err != nil {
		t.Fatal(err)
	}

	empty := base
	empty.Edits = []smartndr.Edit{}
	emptyKey, err := fr.FlowKey(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if emptyKey != baseKey {
		t.Errorf("empty edit list changed the key: %s vs %s", emptyKey, baseKey)
	}

	edited := base
	edited.Edits = []smartndr.Edit{{Op: core.OpSinkCap, Sink: 2, Cap: 2e-15}}
	editedKey, err := fr.FlowKey(&edited)
	if err != nil {
		t.Fatal(err)
	}
	if editedKey == baseKey {
		t.Error("edit state did not change the content address")
	}

	// A shadowed duplicate plus reordering canonicalizes to the same
	// state, so the same address.
	spelled := base
	spelled.Edits = []smartndr.Edit{
		{Op: core.OpSinkCap, Sink: 2, Cap: 9e-15}, // shadowed by the later write
		{Op: core.OpSinkCap, Sink: 2, Cap: 2e-15},
	}
	spelledKey, err := fr.FlowKey(&spelled)
	if err != nil {
		t.Fatal(err)
	}
	if spelledKey != editedKey {
		t.Errorf("canonically equal edit states got different keys: %s vs %s", spelledKey, editedKey)
	}
}
