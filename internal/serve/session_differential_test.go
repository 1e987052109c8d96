package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"unsafe"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/testutil"
)

// The session-replay differential suite. The session API's correctness
// contract is that statefulness is an optimization, never a semantic: a
// session's Result after any sequence of deltas must be byte-identical
// to a cold /v1/flow of the equivalently edited request, and carry the
// same content address. These tests replay random seeded edit sequences
// through live sessions, prefix by prefix, against cold runs.

// sessEdits generates one batch of valid random edits for an nSinks-sink
// spec with nNodes tree nodes on a die×die floorplan. Pure function of
// rng state, so the sequences are reproducible from the seed.
func sessEdits(rng *rand.Rand, nSinks, nNodes int, die float64, count int) []smartndr.Edit {
	edits := make([]smartndr.Edit, 0, count)
	for i := 0; i < count; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			edits = append(edits, smartndr.Edit{Op: core.OpMoveSink,
				Sink: rng.Intn(nSinks), X: rng.Float64() * die, Y: rng.Float64() * die})
		case 2:
			edits = append(edits, smartndr.Edit{Op: core.OpSinkCap,
				Sink: rng.Intn(nSinks), Cap: (1 + 3*rng.Float64()) * 1e-15})
		case 3:
			edits = append(edits, smartndr.Edit{Op: core.OpSinkRule,
				Sink: rng.Intn(nSinks), Rule: rng.Intn(4)})
		case 4:
			edits = append(edits, smartndr.Edit{Op: core.OpNodeRule,
				Node: rng.Intn(nNodes), Rule: rng.Intn(4)})
		default:
			edits = append(edits, smartndr.Edit{Op: core.OpInSlew,
				InSlewPS: 30 + 40*rng.Float64()})
		}
	}
	return edits
}

func decodeSessionResponse(t *testing.T, body []byte) *SessionResponse {
	t.Helper()
	var out SessionResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("session response not JSON: %v: %s", err, body)
	}
	return &out
}

// replaySeed drives one seeded edit sequence through a session on warm
// and a cold /v1/flow per prefix on cold, asserting byte-identity and
// key equality at every step. Returns the Result bytes per prefix
// (index 0 = pristine) so callers can compare across server configs.
func replaySeed(t *testing.T, warm, cold *httptest.Server, name string, seed int64, steps int) [][]byte {
	t.Helper()
	spec := testutil.UniformSpec(name, 24, 600, seed)

	createResp, createBody := postJSON(t, warm, "/v1/session", &SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
	})
	if createResp.StatusCode != http.StatusOK {
		t.Fatalf("seed %d: create status %d: %s", seed, createResp.StatusCode, createBody)
	}
	sess := decodeSessionResponse(t, createBody)
	if sess.Session == "" || sess.Nodes == 0 || sess.Rev != 0 {
		t.Fatalf("seed %d: malformed create response: %s", seed, createBody)
	}

	rng := rand.New(rand.NewSource(seed))
	var state []smartndr.Edit
	results := make([][]byte, 0, steps+1)
	prefix := func(step int, got []byte, gotKey string) {
		coldResp, coldBody := postJSON(t, cold, "/v1/flow",
			&FlowRequest{Spec: &spec, Scheme: "smart-ndr", Edits: state})
		if coldResp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d step %d: cold status %d: %s", seed, step, coldResp.StatusCode, coldBody)
		}
		if !bytes.Equal(got, coldBody) {
			t.Fatalf("seed %d step %d: session result differs from cold run\nwarm: %s\ncold: %s",
				seed, step, got, coldBody)
		}
		if ck := coldResp.Header.Get("X-Key"); ck != gotKey {
			t.Fatalf("seed %d step %d: session key %s != cold key %s", seed, step, gotKey, ck)
		}
		results = append(results, got)
	}
	prefix(0, sess.Result, sess.Key)

	for step := 1; step <= steps; step++ {
		batch := sessEdits(rng, spec.Sinks, sess.Nodes, spec.DieX, 1+rng.Intn(3))
		state = core.CanonicalEdits(append(state, batch...))
		deltaResp, deltaBody := postJSON(t, warm, "/v1/session/"+sess.Session+"/delta",
			&SessionDeltaRequest{Edits: batch})
		if deltaResp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d step %d: delta status %d: %s", seed, step, deltaResp.StatusCode, deltaBody)
		}
		out := decodeSessionResponse(t, deltaBody)
		if out.Rev != step {
			t.Fatalf("seed %d step %d: rev = %d", seed, step, out.Rev)
		}
		prefix(step, out.Result, out.Key)
	}
	return results
}

// TestServeSessionReplayByteIdentical is the headline differential test:
// for 24 seeded random edit sequences, every prefix replayed through the
// session API matches the cold /v1/flow bytes of the equivalently edited
// spec — and the bytes are invariant across server worker counts.
func TestServeSessionReplayByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("session replay sweep is not a -short test")
	}
	const seeds = 24
	const steps = 4

	// Results are collected per worker count and cross-compared, so the
	// suite also proves fan-out width never leaks into session bytes.
	byWorkers := map[int][][][]byte{}
	for _, workers := range []int{1, 8} {
		warm := httptest.NewServer(New(Config{Workers: workers}).Handler())
		cold := httptest.NewServer(New(Config{Workers: workers, CacheEntries: 1}).Handler())
		for i := 0; i < seeds; i++ {
			seed := int64(4000 + 61*i)
			byWorkers[workers] = append(byWorkers[workers],
				replaySeed(t, warm, cold, fmt.Sprintf("sess%02d", i), seed, steps))
		}
		warm.Close()
		cold.Close()
	}
	for i := range byWorkers[1] {
		for step := range byWorkers[1][i] {
			if !bytes.Equal(byWorkers[1][i][step], byWorkers[8][i][step]) {
				t.Errorf("seed idx %d step %d: bytes differ between workers=1 and workers=8", i, step)
			}
		}
	}
}

// TestServeSessionRollbackInverse is the inverse-edit metamorphic
// property: after a stack of deltas, rolling back to each earlier rev —
// newest to oldest, down to the create state — returns Result bytes
// identical to the response recorded when that rev was first visited.
func TestServeSessionRollbackInverse(t *testing.T) {
	if testing.Short() {
		t.Skip("rollback property sweep is not a -short test")
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	const seeds = 24
	const steps = 3
	for i := 0; i < seeds; i++ {
		seed := int64(7000 + 13*i)
		spec := testutil.UniformSpec(fmt.Sprintf("roll%02d", i), 24, 600, seed)
		createResp, createBody := postJSON(t, ts, "/v1/session", &SessionCreateRequest{
			FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
		})
		if createResp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: create status %d: %s", seed, createResp.StatusCode, createBody)
		}
		sess := decodeSessionResponse(t, createBody)

		rng := rand.New(rand.NewSource(seed))
		recorded := [][]byte{sess.Result}
		keys := []string{sess.Key}
		for step := 1; step <= steps; step++ {
			batch := sessEdits(rng, spec.Sinks, sess.Nodes, spec.DieX, 2)
			resp, body := postJSON(t, ts, "/v1/session/"+sess.Session+"/delta",
				&SessionDeltaRequest{Edits: batch})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d step %d: delta status %d: %s", seed, step, resp.StatusCode, body)
			}
			out := decodeSessionResponse(t, body)
			recorded = append(recorded, out.Result)
			keys = append(keys, out.Key)
		}

		for rev := steps; rev >= 0; rev-- {
			rb := rev
			resp, body := postJSON(t, ts, "/v1/session/"+sess.Session+"/delta",
				&SessionDeltaRequest{RollbackTo: &rb})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d rollback to %d: status %d: %s", seed, rev, resp.StatusCode, body)
			}
			out := decodeSessionResponse(t, body)
			if !bytes.Equal(out.Result, recorded[rev]) {
				t.Fatalf("seed %d: rollback to rev %d diverged from recorded response\ngot:  %s\nwant: %s",
					seed, rev, out.Result, recorded[rev])
			}
			if out.Key != keys[rev] {
				t.Fatalf("seed %d: rollback to rev %d key %s, want %s", seed, rev, out.Key, keys[rev])
			}
		}
	}
}

// TestServeSessionEvictionRehydration: when the store evicts a session
// under pressure, re-creating it with its last canonical edit state (the
// documented client recovery) lands on the same content address and the
// same Result bytes — eviction loses the warm engine, never the answer.
func TestServeSessionEvictionRehydration(t *testing.T) {
	if testing.Short() {
		t.Skip("eviction re-hydration runs real synthesis")
	}
	ts := httptest.NewServer(New(Config{MaxSessions: 1}).Handler())
	defer ts.Close()

	spec := testutil.UniformSpec("evict", 24, 600, 11)
	createResp, createBody := postJSON(t, ts, "/v1/session", &SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
	})
	if createResp.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", createResp.StatusCode, createBody)
	}
	first := decodeSessionResponse(t, createBody)

	// The client mirrors its canonical state, as a real client would.
	rng := rand.New(rand.NewSource(99))
	batch := sessEdits(rng, spec.Sinks, first.Nodes, spec.DieX, 3)
	state := core.CanonicalEdits(batch)
	deltaResp, deltaBody := postJSON(t, ts, "/v1/session/"+first.Session+"/delta",
		&SessionDeltaRequest{Edits: batch})
	if deltaResp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", deltaResp.StatusCode, deltaBody)
	}
	edited := decodeSessionResponse(t, deltaBody)

	// A second session evicts the first (MaxSessions=1).
	other := testutil.UniformSpec("evict2", 24, 600, 12)
	otherResp, otherBody := postJSON(t, ts, "/v1/session", &SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &other, Scheme: "smart-ndr"},
	})
	if otherResp.StatusCode != http.StatusOK {
		t.Fatalf("second create status %d: %s", otherResp.StatusCode, otherBody)
	}
	goneResp, goneBody := postJSON(t, ts, "/v1/session/"+first.Session+"/delta",
		&SessionDeltaRequest{Edits: batch})
	if goneResp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta to evicted session = %d, want 404: %s", goneResp.StatusCode, goneBody)
	}

	// Re-hydrate: create carrying the mirrored state.
	rehydResp, rehydBody := postJSON(t, ts, "/v1/session", &SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr", Edits: state},
	})
	if rehydResp.StatusCode != http.StatusOK {
		t.Fatalf("re-hydrate status %d: %s", rehydResp.StatusCode, rehydBody)
	}
	rehyd := decodeSessionResponse(t, rehydBody)
	if rehyd.Key != edited.Key {
		t.Errorf("re-hydrated key %s, want %s", rehyd.Key, edited.Key)
	}
	if !bytes.Equal(rehyd.Result, edited.Result) {
		t.Errorf("re-hydrated result differs from pre-eviction state:\n%s\n%s",
			rehyd.Result, edited.Result)
	}
	if rehyd.Session == first.Session {
		t.Error("re-hydrated session reused an evicted ID")
	}
}

// TestServeSessionDeepHistoryRollback extends the rollback property past
// the rev checkpoint interval. Over a seeded history of more than 100
// deltas — edits mixed with rollbacks to random earlier revs, rollback
// revs included — every rollback returns the Result bytes and key
// recorded when its target rev was first visited. A final sweep rolls
// back to the revs on both sides of every checkpoint and to every
// rollback rev, and checks each against a cold /v1/flow of the state the
// client mirrored, so the rebuilt states are the folded ones.
func TestServeSessionDeepHistoryRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("deep rollback history is not a -short test")
	}
	warm := httptest.NewServer(New(Config{}).Handler())
	defer warm.Close()
	cold := httptest.NewServer(New(Config{CacheEntries: 1}).Handler())
	defer cold.Close()

	const seed = 9100
	const deltas = 3*checkpointEvery + 12
	spec := testutil.UniformSpec("deep", 24, 600, seed)
	createResp, createBody := postJSON(t, warm, "/v1/session", &SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
	})
	if createResp.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", createResp.StatusCode, createBody)
	}
	sess := decodeSessionResponse(t, createBody)

	rng := rand.New(rand.NewSource(seed))
	recorded := [][]byte{sess.Result}
	keys := []string{sess.Key}
	states := [][]smartndr.Edit{nil}
	var rollbackRevs []int
	step := func(req *SessionDeltaRequest, target int) {
		t.Helper()
		rev := len(recorded)
		resp, body := postJSON(t, warm, "/v1/session/"+sess.Session+"/delta", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rev %d: status %d: %s", rev, resp.StatusCode, body)
		}
		out := decodeSessionResponse(t, body)
		if out.Rev != rev || out.Revs != rev+1 {
			t.Fatalf("rev %d: response rev %d of %d", rev, out.Rev, out.Revs)
		}
		state := states[len(states)-1]
		if target >= 0 {
			if !bytes.Equal(out.Result, recorded[target]) || out.Key != keys[target] {
				t.Fatalf("rev %d: rollback to rev %d diverged from its first visit\ngot:  %s %s\nwant: %s %s",
					rev, target, out.Key, out.Result, keys[target], recorded[target])
			}
			state = states[target]
			rollbackRevs = append(rollbackRevs, rev)
		} else {
			state = core.CanonicalEdits(append(append([]smartndr.Edit(nil), state...), req.Edits...))
		}
		recorded = append(recorded, out.Result)
		keys = append(keys, out.Key)
		states = append(states, state)
	}
	for len(recorded) <= deltas {
		if len(recorded) > 1 && rng.Intn(4) == 0 {
			rb := rng.Intn(len(recorded))
			step(&SessionDeltaRequest{RollbackTo: &rb}, rb)
			continue
		}
		step(&SessionDeltaRequest{Edits: sessEdits(rng, spec.Sinks, sess.Nodes, spec.DieX, 1+rng.Intn(2))}, -1)
	}
	if len(rollbackRevs) < 10 {
		t.Fatalf("only %d rollbacks in the random phase", len(rollbackRevs))
	}

	targets := append([]int(nil), rollbackRevs...)
	for c := checkpointEvery; c <= deltas; c += checkpointEvery {
		targets = append(targets, c-1, c, c+1)
	}
	for _, rb := range targets {
		rb := rb
		step(&SessionDeltaRequest{RollbackTo: &rb}, rb)
		coldResp, coldBody := postJSON(t, cold, "/v1/flow",
			&FlowRequest{Spec: &spec, Scheme: "smart-ndr", Edits: states[rb]})
		if coldResp.StatusCode != http.StatusOK {
			t.Fatalf("cold run of rev %d: status %d: %s", rb, coldResp.StatusCode, coldBody)
		}
		if !bytes.Equal(coldBody, recorded[rb]) || coldResp.Header.Get("X-Key") != keys[rb] {
			t.Fatalf("rev %d differs from a cold run of its mirrored state", rb)
		}
	}
}

// TestSessionRevPacking: a one-edit delta rev holds its edit in the rev
// itself. For each of the five ops the packed rev unpacks to the
// canonical edit and costs its slot alone, and a rollback to it returns
// the bytes and key of a cold /v1/flow of the state the client mirrored.
// Multi-edit deltas and values that do not fit the packed fields keep
// their list.
func TestSessionRevPacking(t *testing.T) {
	if revSlotBytes != int64(unsafe.Sizeof(sessionRev{})) || revSlotBytes > 56 {
		t.Fatalf("revSlotBytes %d, rev size %d: want them equal, at most 56",
			revSlotBytes, unsafe.Sizeof(sessionRev{}))
	}
	for _, delta := range [][]smartndr.Edit{
		{{Op: core.OpSinkCap, Sink: 1, Cap: 2e-15}, {Op: core.OpInSlew, InSlewPS: 50}},
		{{Op: core.OpMoveSink, Sink: math.MaxInt32 + 1, X: 1, Y: 2}},
		{{Op: core.OpNodeRule, Node: 4, Rule: math.MaxInt16 + 1}},
	} {
		if r := deltaRev(3, delta); r.op != 0 || !slices.Equal(r.edits, delta) || r.base != 3 {
			t.Errorf("%v: rev %+v, want it unpacked", delta, r)
		}
	}

	srv := New(Config{})
	warm := httptest.NewServer(srv.Handler())
	defer warm.Close()
	cold := httptest.NewServer(New(Config{CacheEntries: 1}).Handler())
	defer cold.Close()
	spec := testutil.UniformSpec("pack", 24, 600, 31)
	createResp, createBody := postJSON(t, warm, "/v1/session", &SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
	})
	if createResp.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", createResp.StatusCode, createBody)
	}
	sess := decodeSessionResponse(t, createBody)
	edits := []smartndr.Edit{
		{Op: core.OpMoveSink, Sink: 3, X: 101.5, Y: math.Copysign(0, -1)},
		{Op: core.OpSinkCap, Sink: 5, Cap: 2.5e-15},
		{Op: core.OpSinkRule, Sink: 7, Rule: 1},
		{Op: core.OpNodeRule, Node: sess.Nodes / 3, Rule: 2},
		{Op: core.OpInSlew, InSlewPS: 52.25},
	}
	states := [][]smartndr.Edit{nil}
	for _, e := range edits {
		req := e
		if e.Op != core.OpSinkRule && e.Op != core.OpNodeRule {
			req.Rule = 3 // a field the op does not read: the rev keeps the canonical edit
		}
		resp, body := postJSON(t, warm, "/v1/session/"+sess.Session+"/delta",
			&SessionDeltaRequest{Edits: []smartndr.Edit{req}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: delta status %d: %s", e.Op, resp.StatusCode, body)
		}
		states = append(states, core.CanonicalEdits(append(slices.Clone(states[len(states)-1]), e)))
	}
	ss := srv.sessions.get(sess.Session)
	ss.mu.RLock()
	for i, e := range edits {
		r := ss.revs[i+1]
		if r.op == 0 || r.edits != nil || r.base != i || revBytes(r) != revSlotBytes {
			t.Errorf("%s: rev %d is not packed: %+v", e.Op, i+1, r)
		}
		if got := r.delta(); len(got) != 1 || got[0] != e {
			t.Errorf("%s: rev %d unpacks to %+v, want %+v", e.Op, i+1, got, e)
		}
	}
	ss.mu.RUnlock()
	for rev := len(edits); rev >= 1; rev-- {
		rb := rev
		resp, body := postJSON(t, warm, "/v1/session/"+sess.Session+"/delta", &SessionDeltaRequest{RollbackTo: &rb})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rollback to %d: status %d: %s", rev, resp.StatusCode, body)
		}
		out := decodeSessionResponse(t, body)
		coldResp, coldBody := postJSON(t, cold, "/v1/flow",
			&FlowRequest{Spec: &spec, Scheme: "smart-ndr", Edits: states[rev]})
		if coldResp.StatusCode != http.StatusOK {
			t.Fatalf("cold run of rev %d: status %d: %s", rev, coldResp.StatusCode, coldBody)
		}
		if !bytes.Equal(out.Result, coldBody) || out.Key != coldResp.Header.Get("X-Key") {
			t.Fatalf("rollback to packed rev %d differs from a cold run of its state", rev)
		}
	}
}
