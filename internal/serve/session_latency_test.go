package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/testutil"
)

// sessionDelta serializes one delta body for the session endpoints.
func sessionDelta(tb testing.TB, edits []smartndr.Edit) []byte {
	tb.Helper()
	body, err := json.Marshal(&SessionDeltaRequest{Edits: edits})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestServeSessionDeltaLatencyFloor is the session acceptance check: on
// the 300-sink case, a warm session delta — dirty-region re-evaluation
// of a live tree — must come in under 5% of the yardstick
// (newYardstick), a fixed computation about as long as a cold /v1/flow
// of the same edited state, which pays synthesis + optimization + full
// evaluation. Each of three distinct edited states is timed once cold,
// once warm and once on the yardstick, best of three on each, so one
// scheduling hiccup cannot fail the run; the cold flows check the warm
// results and report the ratio the gate used to hold.
func TestServeSessionDeltaLatencyFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("300-sink synthesis is not a -short test")
	}
	// Cache sized to 1 so no cold flow reuses another's result.
	ts := httptest.NewServer(New(Config{CacheEntries: 1}).Handler())
	defer ts.Close()
	spec := testutil.UniformSpec("lat300", 300, 3000, 42)

	createBody, err := json.Marshal(&SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(createBody))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	sess := decodeSessionResponse(t, body)

	// post times one request through the full HTTP stack.
	post := func(path string, body []byte) ([]byte, time.Duration) {
		t.Helper()
		begin := time.Now()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(begin)
		out := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, resp.StatusCode, out)
		}
		return out, d
	}
	// Each state moves the same sink somewhere new, so every delta
	// changes the canonical state and does real dirty-region work.
	states := [][]smartndr.Edit{
		{{Op: core.OpMoveSink, Sink: 5, X: 1200, Y: 900}},
		{{Op: core.OpMoveSink, Sink: 5, X: 400, Y: 2100}},
		{{Op: core.OpMoveSink, Sink: 5, X: 2600, Y: 1700}},
	}
	yard := newYardstick()
	cold, warm, ref := time.Duration(1<<62-1), time.Duration(1<<62-1), time.Duration(1<<62-1)
	for i, edits := range states {
		coldReq, err := json.Marshal(&FlowRequest{Spec: &spec, Scheme: "smart-ndr", Edits: edits})
		if err != nil {
			t.Fatal(err)
		}
		coldBody, c := post("/v1/flow", coldReq)
		out, w := post("/v1/session/"+sess.Session+"/delta", sessionDelta(t, edits))
		cold, warm, ref = min(cold, c), min(warm, w), min(ref, yard())
		// The speed claim is only meaningful because the answers agree.
		if warmResult := decodeSessionResponse(t, out).Result; !bytes.Equal(warmResult, coldBody) {
			t.Fatalf("state %d: warm delta result differs from cold flow:\n%s\n%s", i, warmResult, coldBody)
		}
	}
	t.Logf("best of %d: warm delta %v, yardstick %v (ratio %.1f); cold flow %v (ratio %.1f)",
		len(states), warm, ref, float64(ref)/float64(warm), cold, float64(cold)/float64(warm))
	if warm >= ref/20 {
		t.Errorf("best warm session delta %v is not under 5%% of the yardstick %v", warm, ref)
	}
}

// BenchmarkServeSessionCreate measures the cold half of the session
// story: full synthesis + optimization behind POST /v1/session on the
// 300-sink case. Its ratio to BenchmarkServeSessionDeltaWarm is the
// speedup a session buys per edit.
func BenchmarkServeSessionCreate(b *testing.B) {
	ts := httptest.NewServer(New(Config{MaxSessions: 4}).Handler())
	defer ts.Close()
	spec := testutil.UniformSpec("lat300", 300, 3000, 42)
	body, err := json.Marshal(&SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServeSessionDeltaWarm measures one warm edit-and-re-evaluate
// round trip against a live 300-sink session. The two alternating edits
// guarantee every delta changes the canonical state, so the engine does
// real dirty-region work each iteration.
func BenchmarkServeSessionDeltaWarm(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	spec := testutil.UniformSpec("lat300", 300, 3000, 42)
	createBody, err := json.Marshal(&SessionCreateRequest{
		FlowRequest: FlowRequest{Spec: &spec, Scheme: "smart-ndr"},
	})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(createBody))
	if err != nil {
		b.Fatal(err)
	}
	var sess SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if sess.Session == "" {
		b.Fatal("no session")
	}
	deltas := [2][]byte{
		sessionDelta(b, []smartndr.Edit{{Op: core.OpMoveSink, Sink: 5, X: 1200, Y: 900}}),
		sessionDelta(b, []smartndr.Edit{{Op: core.OpMoveSink, Sink: 5, X: 400, Y: 2100}}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/session/"+sess.Session+"/delta",
			"application/json", bytes.NewReader(deltas[i%2]))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
