package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smartndr/internal/obs"
)

// stepClock is an injectable clock: every Now() advances by the
// current step, so request durations are exact multiples of it — the
// request envelope reads the clock exactly twice (admission and
// finish), so a request observed with step d has duration d.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newStepClock(step time.Duration) *stepClock {
	return &stepClock{t: time.Unix(1000, 0), step: step}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func (c *stepClock) setStep(d time.Duration) {
	c.mu.Lock()
	c.step = d
	c.mu.Unlock()
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if out != nil {
		if err := json.Unmarshal(readBody(t, resp), out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp
}

func TestRequestLatencyHistogramsAndStatszPercentiles(t *testing.T) {
	sr := newStubRunner()
	clock := newStepClock(time.Millisecond)
	s := New(Config{Runner: sr, Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readBody(t, postFlow(t, ts, `{"bench":"cns01"}`)) // cold
	readBody(t, postFlow(t, ts, `{"bench":"cns01"}`)) // hit
	readBody(t, postFlow(t, ts, `{"bench"`))          // 400 → error class

	var st Statsz
	getJSON(t, ts, "/v1/statsz", &st)
	for key, wantCount := range map[string]uint64{
		"flow.cold":  1,
		"flow.hit":   1,
		"flow.error": 1,
	} {
		got, ok := st.Latency[key]
		if !ok {
			t.Fatalf("statsz latency missing %q: %+v", key, st.Latency)
		}
		if got.Count != wantCount {
			t.Errorf("latency[%q].count = %d, want %d", key, got.Count, wantCount)
		}
		if !(got.P50MS > 0 && got.P50MS <= got.P95MS && got.P95MS <= got.P99MS) {
			t.Errorf("latency[%q] percentiles not ordered: %+v", key, got)
		}
	}
	if _, ok := st.Latency["flow.refused"]; ok {
		t.Error("refused class reported before any refusal")
	}
	if _, ok := st.Latency["sweep.cold"]; ok {
		t.Error("empty sweep histogram leaked into statsz")
	}
	// Every request took exactly one 1ms clock step, landing in the
	// le=1ms bucket, so p50 interpolates inside (0.5, 1].
	if got := st.Latency["flow.cold"].P50MS; !(got > 0.5 && got <= 1) {
		t.Errorf("flow.cold p50 = %gms, want in (0.5, 1]", got)
	}

	// Draining refusals land in the refused class.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postFlow(t, ts, `{"bench":"cns02"}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d", resp.StatusCode)
	}
	getJSON(t, ts, "/v1/statsz", &st)
	if got := st.Latency["flow.refused"].Count; got != 1 {
		t.Errorf("flow.refused count = %d, want 1", got)
	}
}

func TestMetricszExposition(t *testing.T) {
	sr := newStubRunner()
	spanObs := obs.NewSpanObserver(nil)
	tracer := obs.New(spanObs)
	defer tracer.Close()
	s := New(Config{Runner: sr, Tracer: tracer, SpanObs: spanObs, Now: newStepClock(time.Millisecond).Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readBody(t, postFlow(t, ts, `{"bench":"cns01"}`)) // cold
	readBody(t, postFlow(t, ts, `{"bench":"cns01"}`)) // hit

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readBody(t, resp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE smartndr_serve_requests_total counter",
		"smartndr_serve_requests_total 2",
		"smartndr_serve_cache_hits_total 1",
		"# TYPE smartndr_serve_flow_cold_seconds histogram",
		`smartndr_serve_flow_cold_seconds_bucket{le="+Inf"} 1`,
		"smartndr_serve_flow_cold_seconds_count 1",
		"smartndr_serve_flow_hit_seconds_count 1",
		"# TYPE smartndr_go_goroutines gauge",
		"# TYPE smartndr_go_gc_cycles_total counter",
		"# TYPE smartndr_span_duration_seconds histogram",
		`smartndr_span_duration_seconds_bucket{path="serve.flow",le="+Inf"} 2`,
		`smartndr_span_duration_seconds_count{path="serve.flow/stub.run"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Parseability: every line is a comment or "<series> <value>".
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i <= 0 || i == len(line)-1 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	post, err := http.Post(ts.URL+"/metricsz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, post)
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metricsz status = %d, want 405", post.StatusCode)
	}
}

func TestTracezSlowestAndRecent(t *testing.T) {
	sr := newStubRunner()
	clock := newStepClock(time.Millisecond)
	tracer := obs.New(obs.NewSpanObserver(nil))
	defer tracer.Close()
	// Capacity 4: two slowest slots, two recent slots.
	s := New(Config{Runner: sr, Tracer: tracer, TracezCapacity: 4, Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, req := range []struct {
		bench string
		step  time.Duration
	}{
		{"cns01", 1 * time.Millisecond},
		{"cns02", 5 * time.Millisecond},
		{"cns03", 2 * time.Millisecond},
		{"cns04", 10 * time.Millisecond},
	} {
		clock.setStep(req.step)
		readBody(t, postFlow(t, ts, `{"bench":"`+req.bench+`"}`))
	}

	var page TracezPage
	getJSON(t, ts, "/v1/tracez", &page)
	if page.Capacity != 4 || page.Total != 4 {
		t.Errorf("capacity/total = %d/%d, want 4/4", page.Capacity, page.Total)
	}
	if len(page.Slowest) != 2 || page.Slowest[0].Key != "cns04" || page.Slowest[1].Key != "cns02" {
		t.Fatalf("slowest = %+v, want [cns04 cns02]", page.Slowest)
	}
	if page.Slowest[0].DurNS != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("slowest dur = %d, want 10ms", page.Slowest[0].DurNS)
	}
	if len(page.Recent) != 2 || page.Recent[0].Key != "cns03" || page.Recent[1].Key != "cns04" {
		t.Fatalf("recent = %+v, want [cns03 cns04] oldest→newest", page.Recent)
	}
	rec := page.Slowest[0]
	if rec.Endpoint != "flow" || rec.Outcome != latCold || rec.Status != http.StatusOK || rec.Cache != CacheMiss {
		t.Errorf("slowest record envelope = %+v", rec)
	}
	if len(rec.Spans) != 1 || rec.Spans[0].Span != "serve.flow" {
		t.Fatalf("slowest spans = %+v, want one serve.flow root", rec.Spans)
	}
	if kids := rec.Spans[0].Children; len(kids) != 1 || kids[0].Span != "serve.flow/stub.run" {
		t.Errorf("root children = %+v, want serve.flow/stub.run", kids)
	}

	// Disabled buffer → 404.
	off := New(Config{Runner: newStubRunner()})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp := getJSON(t, tsOff, "/v1/tracez", nil)
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled tracez status = %d, want 404", resp.StatusCode)
	}
}

func TestTraceBufferBounds(t *testing.T) {
	b := NewTraceBuffer(6) // 3 slowest + 3 recent
	for i := 1; i <= 10; i++ {
		dur := int64(i)
		if i == 4 {
			dur = 100 // an early outlier must survive the whole run
		}
		b.Add(TraceRecord{Req: int64(i), DurNS: dur})
	}
	page := b.Snapshot()
	if page.Total != 10 {
		t.Errorf("total = %d, want 10", page.Total)
	}
	if len(page.Slowest) != 3 || page.Slowest[0].DurNS != 100 ||
		page.Slowest[1].Req != 10 || page.Slowest[2].Req != 9 {
		t.Errorf("slowest = %+v", page.Slowest)
	}
	if len(page.Recent) != 3 || page.Recent[0].Req != 8 || page.Recent[2].Req != 10 {
		t.Errorf("recent = %+v", page.Recent)
	}
	// Ties keep arrival order (deterministic selection).
	tie := NewTraceBuffer(4)
	for i := 1; i <= 4; i++ {
		tie.Add(TraceRecord{Req: int64(i), DurNS: 7})
	}
	if got := tie.Snapshot().Slowest; got[0].Req != 1 || got[1].Req != 2 {
		t.Errorf("tie-broken slowest = %+v, want arrival order", got)
	}
}

func TestBuildSpanTreeNesting(t *testing.T) {
	evs := []obs.SpanEvent{
		// End order (innermost first), as a collector would see them.
		{Span: "serve.sweep/sweep.build", Depth: 1, StartNS: 110, DurNS: 40},
		{Span: "serve.sweep/sweep.arms/arm", Depth: 2, StartNS: 160, DurNS: 10},
		{Span: "serve.sweep/sweep.arms/arm", Depth: 2, StartNS: 161, DurNS: 12},
		{Span: "serve.sweep/sweep.arms", Depth: 1, StartNS: 155, DurNS: 30},
		{Span: "serve.sweep", Depth: 0, StartNS: 100, DurNS: 100},
	}
	roots := buildSpanTree(evs)
	if len(roots) != 1 || roots[0].Span != "serve.sweep" {
		t.Fatalf("roots = %+v", roots)
	}
	if roots[0].StartNS != 0 {
		t.Errorf("root start = %d, want 0 (request-relative)", roots[0].StartNS)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Span != "serve.sweep/sweep.build" || kids[1].Span != "serve.sweep/sweep.arms" {
		t.Fatalf("children = %+v", kids)
	}
	arms := kids[1].Children
	if len(arms) != 2 || arms[0].StartNS != 60 || arms[1].StartNS != 61 {
		t.Errorf("arm siblings = %+v, want both nested under sweep.arms", arms)
	}
	if buildSpanTree(nil) != nil {
		t.Error("empty events must yield nil")
	}
}

func TestLatencyClass(t *testing.T) {
	cases := []struct {
		status  int
		outcome string
		want    string
	}{
		{200, CacheMiss, latCold},
		{200, CacheHit, latHit},
		{200, CacheShared, latHit},
		{429, "", latRefused},
		{503, "", latRefused},
		{400, "", latError},
		{405, "", latError},
		{500, CacheMiss, latError},
		{504, CacheMiss, latError},
	}
	for _, c := range cases {
		if got := latencyClass(c.status, c.outcome); got != c.want {
			t.Errorf("latencyClass(%d, %q) = %q, want %q", c.status, c.outcome, got, c.want)
		}
	}
}
