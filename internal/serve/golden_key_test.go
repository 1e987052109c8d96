package serve

import (
	"testing"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/workload"
)

// TestGoldenKeysUnchangedByEditSupport pins the content addresses of
// edit-free flow, sweep, and batch requests under flow key version v6.
// Edit-free requests must keep producing exactly these hashes: the edits
// field is omitempty in the canonical serialization, so session support
// never moves a plain run's address. The addresses were re-pinned three
// times, deliberately: when the result-neutral incremental-STA switch left
// the serialized optimizer config and the key version went from v2
// (plain) / v3 (edited) to a single v4; when the optimizer's input slew
// began resolving from the flow's (so the serialized optimizer config
// carries it) and the version went to v5; and when the topology knob left
// the serialized cts options (bipartition is the only topology; every
// tree is unchanged) and the version went to v6. If this test fails, a
// serialization change silently invalidated every deployed cache.
func TestGoldenKeysUnchangedByEditSupport(t *testing.T) {
	fr := &FlowRunner{}
	spec := workload.Spec{Name: "gold", Dist: workload.Uniform, Sinks: 48,
		DieX: 900, DieY: 700, CapMin: 1e-15, CapMax: 4e-15, Seed: 7}
	flows := []struct {
		req  *FlowRequest
		want string
	}{
		{&FlowRequest{Bench: "cns01", Scheme: "smart-ndr"},
			"61d342ecc83874ffe8477b5cbcfeb797ba1f22ec3b086e7c48658d0e1d4873df"},
		{&FlowRequest{Bench: "cns03", Scheme: "blanket-ndr", Tech: "tech65", TopK: 3, InSlewPS: 60},
			"5e9c4c374771a3b5ba31233d5e06f3616178607ae4dcb1a108e123972d43353c"},
		{&FlowRequest{Spec: &spec, Scheme: "top-k", TopK: 4},
			"34fdf64985959dccacd33987e0d050dd676fa907aff144f31d93e7aa9714059b"},
		{&FlowRequest{Spec: &spec, Scheme: "smart-ndr", MaxRegionSinks: 32, SkewSplit: 0.6},
			"28771b8d51d3c081fdfa136c31cf447973d7cdd7d987a5ab0dccf4780118de50"},
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
	if want := "5e8a9df11b83ccaf9e46158316812c0e7a1e529b56d856ed0ed97dbad08f4063"; got != want {
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
		"715c8b2a163d3b6b3e714719485840716fccd9595ce26b50691c52b55996fea7"; got != want {
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
