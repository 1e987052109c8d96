package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smartndr/internal/obs"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	return resp
}

func TestServeBatchRoundTrip(t *testing.T) {
	sr := newStubRunner()
	ts := httptest.NewServer(New(Config{Runner: sr}).Handler())
	defer ts.Close()

	body := `{"requests":[{"bench":"cns01"},{"bench":"cns02"},{"bench":"cns01"}]}`
	cold := postBatch(t, ts, body)
	coldBody := readBody(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold batch status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Cache"); got != CacheMiss {
		t.Errorf("cold batch X-Cache = %q, want miss", got)
	}
	var out BatchResponse
	if err := json.Unmarshal(coldBody, &out); err != nil {
		t.Fatalf("batch response not JSON: %v", err)
	}
	if out.Key == "" || out.Key != cold.Header.Get("X-Key") {
		t.Errorf("batch key %q / X-Key %q", out.Key, cold.Header.Get("X-Key"))
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i, res := range out.Results {
		if res.Status != http.StatusOK || res.Error != "" {
			t.Errorf("item %d = %+v, want 200 with no error", i, res)
		}
	}
	// Duplicate items share one flight: two distinct benches → two runs.
	if sr.Runs() != 2 {
		t.Errorf("runner ran %d times for [cns01 cns02 cns01], want 2 (duplicate shares the flight)", sr.Runs())
	}
	if !bytes.Equal(out.Results[0].Flow, out.Results[2].Flow) {
		t.Errorf("duplicate items returned different bytes:\n%s\n%s",
			out.Results[0].Flow, out.Results[2].Flow)
	}

	// Each item's bytes are exactly the standalone /v1/flow bytes.
	flow := postFlow(t, ts, `{"bench":"cns02"}`)
	flowBody := readBody(t, flow)
	if !bytes.Equal(bytes.TrimSpace(flowBody), []byte(out.Results[1].Flow)) {
		t.Errorf("batch item bytes differ from standalone flow:\n%s\n%s", flowBody, out.Results[1].Flow)
	}

	// A warm batch replays identical bytes and reports a hit.
	warm := postBatch(t, ts, body)
	warmBody := readBody(t, warm)
	if got := warm.Header.Get("X-Cache"); got != CacheHit {
		t.Errorf("warm batch X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm batch differs from cold:\n%s\n%s", coldBody, warmBody)
	}
}

func TestServeBatchWorkerCountInvariance(t *testing.T) {
	// Two fresh servers so both batches run cold; the worker knob must
	// not change a byte.
	sr1 := newStubRunner()
	ts1 := httptest.NewServer(New(Config{Runner: sr1}).Handler())
	defer ts1.Close()
	sr2 := newStubRunner()
	ts2 := httptest.NewServer(New(Config{Runner: sr2}).Handler())
	defer ts2.Close()

	items := make([]string, 8)
	for i := range items {
		items[i] = fmt.Sprintf(`{"bench":"cns0%d"}`, i+1)
	}
	list := strings.Join(items, ",")
	serial := postBatch(t, ts1, `{"requests":[`+list+`],"workers":1}`)
	serialBody := readBody(t, serial)
	wide := postBatch(t, ts2, `{"requests":[`+list+`],"workers":32}`)
	wideBody := readBody(t, wide)
	if serial.StatusCode != http.StatusOK || wide.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d / %d", serial.StatusCode, wide.StatusCode)
	}
	if !bytes.Equal(serialBody, wideBody) {
		t.Errorf("batch bytes differ between workers=1 and workers=32:\n%s\n%s", serialBody, wideBody)
	}
}

// failingRunner wraps the stub and fails specific benches, so item
// isolation can be tested without touching the happy path.
type failingRunner struct {
	*stubRunner
	failBench string
}

func (fr *failingRunner) RunFlow(ctx context.Context, req *FlowRequest, tr *obs.Tracer) (*FlowResponse, error) {
	if req.Bench == fr.failBench {
		return nil, fmt.Errorf("engine exploded on %s", req.Bench)
	}
	return fr.stubRunner.RunFlow(ctx, req, tr)
}

func TestServeBatchItemFailureDoesNotPoisonSiblings(t *testing.T) {
	fr := &failingRunner{stubRunner: newStubRunner(), failBench: "cns05"}
	ts := httptest.NewServer(New(Config{Runner: fr}).Handler())
	defer ts.Close()

	resp := postBatch(t, ts, `{"requests":[{"bench":"cns01"},{"bench":"cns05"},{"bench":"cns03"}]}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status %d, want 200 (items carry their own status): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != CacheMiss {
		t.Errorf("X-Cache = %q, want miss when any item failed", got)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Status != http.StatusOK || out.Results[2].Status != http.StatusOK {
		t.Errorf("sibling statuses = %d, %d, want 200", out.Results[0].Status, out.Results[2].Status)
	}
	if out.Results[1].Status != http.StatusInternalServerError ||
		!strings.Contains(out.Results[1].Error, "engine exploded") {
		t.Errorf("failed item = %+v, want 500 with the engine error", out.Results[1])
	}
	if len(out.Results[1].Flow) != 0 {
		t.Errorf("failed item carries flow bytes: %s", out.Results[1].Flow)
	}
}

func TestServeBatchValidation(t *testing.T) {
	sr := newStubRunner()
	ts := httptest.NewServer(New(Config{Runner: sr}).Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want string
	}{
		{"empty", `{"requests":[]}`, "no requests"},
		{"missing", `{}`, "no requests"},
		{"per-item timeout", `{"requests":[{"bench":"a","timeout_ms":500}]}`, "per-item timeout_ms"},
		{"negative workers", `{"requests":[{"bench":"a"}],"workers":-1}`, "negative workers"},
		{"negative timeout", `{"requests":[{"bench":"a"}],"timeout_ms":-1}`, "negative timeout_ms"},
		{"unknown field", `{"requests":[{"bench":"a"}],"bogus":1}`, "unknown"},
		{"not json", `nope`, ""},
	}
	for _, c := range cases {
		resp := postBatch(t, ts, c.body)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, resp.StatusCode, body)
		}
		if c.want != "" && !strings.Contains(string(body), c.want) {
			t.Errorf("%s: error %s does not mention %q", c.name, body, c.want)
		}
	}
	if sr.Runs() != 0 {
		t.Errorf("invalid batches reached the runner %d times", sr.Runs())
	}

	// The item cap rejects oversized batches before any key work.
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"bench":"b%d"}`, i)
	}
	sb.WriteString(`]}`)
	resp := postBatch(t, ts, sb.String())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "batch limit") {
		t.Errorf("oversized batch: status %d body %s, want 400 mentioning the batch limit", resp.StatusCode, body)
	}

	// Method check.
	getResp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, getResp)
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch = %d, want 405", getResp.StatusCode)
	}
}

func TestRetryAfterDerivedFromColdP95(t *testing.T) {
	sr := newStubRunner()
	s := New(Config{Runner: sr, RetryAfter: 2 * time.Second})

	// Before any cold run completes, the configured hint applies.
	if got := s.retryAfterSeconds(); got != "2" {
		t.Errorf("cold-start Retry-After = %q, want the configured \"2\"", got)
	}

	// Feed the flow cold histogram a fast regime: the hint follows the
	// p95 (rounded up to whole seconds, min 1).
	for i := 0; i < 20; i++ {
		s.lat[epFlow][latCold].Observe(0.05)
	}
	if got := s.retryAfterSeconds(); got != "1" {
		t.Errorf("fast-regime Retry-After = %q, want the 1s floor", got)
	}

	// A slow endpoint dominates: the hint takes the max cold p95 across
	// endpoints, ceiling-rounded. The expected value is derived through
	// the histogram's own quantile so the test pins the wiring, not the
	// bucket layout.
	for i := 0; i < 20; i++ {
		s.lat[epSweep][latCold].Observe(40.0)
	}
	p95 := s.coldP95()
	if p95 < 1.0 {
		t.Fatalf("coldP95 = %v after 40s observations; max-across-endpoints is broken", p95)
	}
	want := int((time.Duration(p95*float64(time.Second)) + time.Second - 1) / time.Second)
	if got := s.retryAfterSeconds(); got != fmt.Sprint(want) {
		t.Errorf("mixed-regime Retry-After = %q, want ceil(p95) = %d", got, want)
	}
}

func TestRetryAfterHeaderOnRefusalTracksColdP95(t *testing.T) {
	sr := newStubRunner()
	s := New(Config{Runner: sr, RetryAfter: time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Simulate a history of ~3s cold flows, then drain: the refusal's
	// Retry-After must reflect the derived hint, not the static 1s.
	for i := 0; i < 10; i++ {
		s.lat[epFlow][latCold].Observe(3.0)
	}
	wantSecs := s.retryAfterSeconds()
	if wantSecs == "1" {
		t.Fatalf("derived hint still the static fallback; observations not visible")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postFlow(t, ts, `{"bench":"late"}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining flow = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != wantSecs {
		t.Errorf("Retry-After = %q, want derived %q", got, wantSecs)
	}
}

// TestServeBatchItemsPastDeadlineReport504: an item the batch deadline
// overtakes before it starts gets the status a standalone call would —
// 504, tallied as a timeout — not an empty result.
func TestServeBatchItemsPastDeadlineReport504(t *testing.T) {
	sr := newStubRunner()
	sr.waitCtx = true
	s := New(Config{Runner: sr})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One worker: the first item holds it until the deadline passes.
	resp := postBatch(t, ts, `{"requests":[{"bench":"cns01"},{"bench":"cns02"}],"workers":1,"timeout_ms":1}`)
	body := readBody(t, resp)
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != 2 {
		t.Fatalf("batch body %s: %v", body, err)
	}
	for i, res := range out.Results {
		if res.Status != http.StatusGatewayTimeout {
			t.Errorf("item %d = %+v, want 504", i, res)
		}
	}
	if got := s.reg.Counter("serve.timeouts"); got != 2 {
		t.Errorf("serve.timeouts = %v, want 2", got)
	}
}
