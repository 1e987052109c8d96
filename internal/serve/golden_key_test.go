package serve

import (
	"testing"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/workload"
)

// TestGoldenKeysUnchangedByEditSupport pins the content addresses of
// edit-free flow, sweep, and batch requests under flow key version v5.
// Edit-free requests must keep producing exactly these hashes: the edits
// field is omitempty in the canonical serialization, so session support
// never moves a plain run's address. The addresses were re-pinned twice,
// deliberately: when the result-neutral incremental-STA switch left the
// serialized optimizer config and the key version went from v2 (plain) /
// v3 (edited) to a single v4, and when the optimizer's input slew began
// resolving from the flow's (so the serialized optimizer config carries
// it) and the version went to v5. If this test fails, a serialization
// change silently invalidated every deployed cache.
func TestGoldenKeysUnchangedByEditSupport(t *testing.T) {
	fr := &FlowRunner{}
	spec := workload.Spec{Name: "gold", Dist: workload.Uniform, Sinks: 48,
		DieX: 900, DieY: 700, CapMin: 1e-15, CapMax: 4e-15, Seed: 7}
	flows := []struct {
		req  *FlowRequest
		want string
	}{
		{&FlowRequest{Bench: "cns01", Scheme: "smart-ndr"},
			"685b829db41a98742c78200984f6c67b553e9c951e9e97693fd352c4a3b79d07"},
		{&FlowRequest{Bench: "cns03", Scheme: "blanket-ndr", Tech: "tech65", TopK: 3, InSlewPS: 60},
			"0069b48b4aa8f7867074e1bd885020cb4c5c9e464a10c7a35d38197b6ba8dd67"},
		{&FlowRequest{Spec: &spec, Scheme: "top-k", TopK: 4},
			"fbba4e22314792e97833fdf47228aabd302d37ea4a3bf480161a39320c606026"},
		{&FlowRequest{Spec: &spec, Scheme: "smart-ndr", MaxRegionSinks: 32, SkewSplit: 0.6},
			"6421e9813af1e2f5de18c8577440dde3d0380e4edcaa1d3a6a3a175b411061cc"},
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
	if want := "58236027677d261a6007f2736851173fdced024bfbd098040e793cca8ec7f9b6"; got != want {
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
		"22d38f7dbac16992baf398f1fa031fac030513cb983d58ffb108f74aad26fdf9"; got != want {
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
