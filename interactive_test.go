package smartndr_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"smartndr"
	"smartndr/internal/cell"
	"smartndr/internal/core"
	"smartndr/internal/cts"
	"smartndr/internal/tech"
	"smartndr/internal/testutil"
)

// runKeyRef is the canonical run serialization as one struct: marshaled
// in a single json.Marshal call, it is the reference the streamed key
// must reproduce byte for byte.
type runKeyRef struct {
	V       string              `json:"v"`
	Spec    smartndr.BenchSpec  `json:"spec"`
	Tech    *smartndr.Tech      `json:"tech"`
	Library *smartndr.Library   `json:"library"`
	Scheme  int                 `json:"scheme"`
	TopK    int                 `json:"top_k"`
	InSlew  float64             `json:"in_slew"`
	CTS     cts.Options         `json:"cts"`
	Opt     core.Config         `json:"opt"`
	Hier    smartndr.HierConfig `json:"hier"`
	Edits   []core.Edit         `json:"edits,omitempty"`
}

func refKeyBytes(t *testing.T, f *smartndr.Flow, spec smartndr.BenchSpec, scheme smartndr.Scheme, edits []smartndr.Edit) []byte {
	t.Helper()
	cfg := f.Config()
	k := runKeyRef{
		V: "smartndr/flow/v5", Spec: spec, Tech: cfg.Tech, Library: cfg.Library,
		Scheme: int(scheme), TopK: cfg.TopK, InSlew: cfg.InSlew,
		CTS: cfg.CTS, Opt: cfg.Opt, Hier: cfg.Hier, Edits: core.CanonicalEdits(edits),
	}
	k.CTS.Tracer, k.Opt.Tracer = nil, nil
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContentKeyStreamsCanonicalBytes: for plain and edited runs on both
// built-in technologies, the streamed content key is the SHA-256 of
// CanonicalRunEdits, those bytes are exactly one json.Marshal of the
// whole run key, and a session's resumed key is the flow's key.
func TestContentKeyStreamsCanonicalBytes(t *testing.T) {
	spec := testutil.UniformSpec("key<&>", 40, 900, 7) // escaped characters in the head
	edits := []smartndr.Edit{
		{Op: core.OpNodeRule, Node: 5, Rule: 1},
		{Op: core.OpMoveSink, Sink: 3, X: 10.5, Y: 20},
		{Op: core.OpInSlew, InSlewPS: 55},
	}
	for _, te := range []*smartndr.Tech{tech.Tech45(), tech.Tech65()} {
		flow := smartndr.NewFlow(&smartndr.FlowConfig{Tech: te, TopK: 3,
			Hier: smartndr.HierConfig{MaxRegionSinks: 500}})
		sess, err := flow.OpenSession(context.Background(), spec, smartndr.SchemeSmart)
		if err != nil {
			t.Fatal(err)
		}
		for _, ed := range [][]smartndr.Edit{nil, edits} {
			b, err := flow.CanonicalRunEdits(spec, smartndr.SchemeSmart, ed)
			if err != nil {
				t.Fatal(err)
			}
			if ref := refKeyBytes(t, flow, spec, smartndr.SchemeSmart, ed); !bytes.Equal(b, ref) {
				t.Fatalf("%s, %d edits: canonical bytes differ from one marshal\ngot:  %s\nwant: %s",
					te.Name, len(ed), b, ref)
			}
			key, err := flow.CanonicalKeyEdits(spec, smartndr.SchemeSmart, ed)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if want := hex.EncodeToString(sum[:]); key != want {
				t.Errorf("%s, %d edits: streamed key %s, want sha256 of the bytes %s", te.Name, len(ed), key, want)
			}
			if sk, err := sess.Key(ed); err != nil || sk != key {
				t.Errorf("%s, %d edits: session key %s (%v), want %s", te.Name, len(ed), sk, err, key)
			}
		}
	}
}

// TestContentKeyLibraryMemoCannotAlias: the memoized library bytes stand
// in only for the shared default instance. A private copy of the default
// library keys like the default (same bytes), a private library with one
// table entry changed keys differently, and concurrent flows share the
// default library read-only (run under -race).
func TestContentKeyLibraryMemoCannotAlias(t *testing.T) {
	spec := testutil.UniformSpec("alias", 40, 900, 8)
	key := func(lib *smartndr.Library) string {
		t.Helper()
		k, err := smartndr.NewFlow(&smartndr.FlowConfig{Library: lib}).CanonicalKeyEdits(spec, smartndr.SchemeSmart, nil)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	shared := smartndr.DefaultLibraryFor(nil)
	if smartndr.DefaultLibraryFor(tech.Tech45()) != shared {
		t.Fatal("DefaultLibraryFor returned two 45 nm instances")
	}
	private := cell.Default45()
	if private == shared {
		t.Fatal("cell.Default45 returned the shared instance")
	}
	base := key(nil)
	if got := key(private); got != base {
		t.Errorf("private default library keys %s, shared default %s", got, base)
	}
	private.Buffers[2].Delay.Values[1][3] *= 1.001
	if key(private) == base {
		t.Error("a library with a changed delay entry shares the default's key")
	}

	var wg sync.WaitGroup
	keys := make([]string, 4)
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flow := smartndr.NewFlow(nil)
			k, err := flow.CanonicalKeyEdits(spec, smartndr.SchemeSmart, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := flow.RunSpecEdits(context.Background(), spec, smartndr.SchemeSmart, nil); err != nil {
				t.Error(err)
			}
			keys[g] = k
		}()
	}
	wg.Wait()
	for g, k := range keys {
		if k != base {
			t.Errorf("goroutine %d key %s, want %s", g, k, base)
		}
	}
}

// TestInteractivePathAllocs pins the allocations of a session's two
// per-delta calls on cns01: ApplyState (ECO state change, dirty-region
// analysis, metrics from the maintained summary) and Key (the key hash
// resumed after the session's fixed head). A rise fails; a fall is
// re-pinned with the change that earns it.
func TestInteractivePathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a cns01 session")
	}
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	spec := smartndr.Suite()[0]
	if spec.Name != "cns01" {
		t.Fatalf("suite starts with %s", spec.Name)
	}
	ctx := context.Background()
	sess, err := smartndr.NewFlow(nil).OpenSession(ctx, spec, smartndr.SchemeSmart)
	if err != nil {
		t.Fatal(err)
	}
	n := sess.Nodes()
	states := [2][]smartndr.Edit{
		{{Op: core.OpNodeRule, Node: n / 3, Rule: 0}, {Op: core.OpSinkCap, Sink: 7, Cap: 2e-15}},
		{{Op: core.OpNodeRule, Node: n / 3, Rule: 1}, {Op: core.OpSinkCap, Sink: 7, Cap: 3e-15}},
	}
	i := 0
	apply := testing.AllocsPerRun(100, func() {
		if _, err := sess.ApplyState(ctx, states[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	key := testing.AllocsPerRun(100, func() {
		if _, err := sess.Key(states[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const applyCeil, keyCeil = 6, 6
	if apply > applyCeil {
		t.Errorf("FlowSession.ApplyState allocates %.0f objects, ceiling %d", apply, applyCeil)
	}
	if key > keyCeil {
		t.Errorf("FlowSession.Key allocates %.0f objects, ceiling %d", key, keyCeil)
	}
	t.Logf("allocs: ApplyState %.0f, Key %.0f", apply, key)
}
