package serve

import (
	"testing"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/workload"
)

// TestGoldenKeysUnchangedByEditSupport pins the content addresses of
// edit-free flow, sweep, and batch requests under flow key version v4.
// Edit-free requests must keep producing exactly these hashes: the edits
// field is omitempty in the canonical serialization, so session support
// never moves a plain run's address. The addresses were re-pinned once,
// deliberately, when the result-neutral incremental-STA switch left the
// serialized optimizer config and the key version went from v2 (plain) /
// v3 (edited) to a single v4. If this test fails, a serialization change
// silently invalidated every deployed cache.
func TestGoldenKeysUnchangedByEditSupport(t *testing.T) {
	fr := &FlowRunner{}
	spec := workload.Spec{Name: "gold", Dist: workload.Uniform, Sinks: 48,
		DieX: 900, DieY: 700, CapMin: 1e-15, CapMax: 4e-15, Seed: 7}
	flows := []struct {
		req  *FlowRequest
		want string
	}{
		{&FlowRequest{Bench: "cns01", Scheme: "smart-ndr"},
			"e8c100f5f03f82f3906a987e656d5948fbb8a507b77d1b5551516a1b74194397"},
		{&FlowRequest{Bench: "cns03", Scheme: "blanket-ndr", Tech: "tech65", TopK: 3, InSlewPS: 60},
			"cf7962be2e51a8a98728b534b86c02588642c2c0aa3d56bb2147041532f95b24"},
		{&FlowRequest{Spec: &spec, Scheme: "top-k", TopK: 4},
			"d8b92d53777c62e6c3aa904cb6f0a0fa96fbf206c3806dcdbb8600d662f499e1"},
		{&FlowRequest{Spec: &spec, Scheme: "smart-ndr", MaxRegionSinks: 32, SkewSplit: 0.6},
			"f43b4e64eaa2ff7a814e97f2c85593af7d64d5b5998019fe962e95b32af74913"},
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
	if want := "48166e47dd71f00888e200fa97b98a42882582cbd194e4e7b5f9594d96ab7bf0"; got != want {
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
		"19b0b0b7873212cc29b93849da7607c6877dfa17aedb4d646ebba1dc83638051"; got != want {
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
