package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"smartndr/internal/testutil"
)

// lat300Request is the acceptance workload: the 300-sink benchmark case
// through the smart scheme — the same shape as the engine's
// 300-sink optimizer benchmark.
func lat300Request(tb testing.TB) []byte {
	tb.Helper()
	spec := testutil.UniformSpec("lat300", 300, 3000, 42)
	body, err := json.Marshal(&FlowRequest{Spec: &spec, Scheme: "smart-ndr"})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func timedPost(tb testing.TB, ts *httptest.Server, body []byte) (time.Duration, string) {
	tb.Helper()
	begin := time.Now()
	resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(begin)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d", resp.StatusCode)
	}
	return elapsed, resp.Header.Get("X-Cache")
}

// yardstickLen is the length of the yardstick's sort. On a shared 2-vCPU
// x86-64 VM the sort took about 9.2 ms (best of three) when the latency
// gates moved to it, a little less than the cold 300-sink smart flow they
// compared against before, so each gate is at least as strict as it was.
const yardstickLen = 70_000

// newYardstick returns the reference the latency gates hold a warm
// request against: each call times one fixed computation, sorting the
// same pseudo-random floats, which no engine change can make faster. A
// gate on a cold flow tightened every time the optimizer got faster; this
// one scales only with the machine and its load, which is what a ratio
// gate is for.
func newYardstick() func() time.Duration {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, yardstickLen)
	for i := range src {
		src[i] = rng.Float64()
	}
	buf := make([]float64, len(src))
	return func() time.Duration {
		copy(buf, src)
		begin := time.Now()
		slices.Sort(buf)
		return time.Since(begin)
	}
}

// TestServeWarmCacheLatencyFloor is the acceptance check: on the
// 300-sink benchmark case a warm-cache /v1/flow round trip must cost
// under 5% of the yardstick, a fixed computation about as long as the
// cold run (newYardstick). The cold run synthesizes and optimizes a
// 300-sink tree (about 10 ms on a 2-vCPU VM); the warm path is a map
// lookup plus response replay, so the margin is wide — if this test
// fails, caching is broken, not slow.
func TestServeWarmCacheLatencyFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("300-sink synthesis is not a -short test")
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := lat300Request(t)

	cold, outcome := timedPost(t, ts, body)
	if outcome != CacheMiss {
		t.Fatalf("first request X-Cache = %q, want miss", outcome)
	}
	// Best of three warm probes and of three yardstick runs, so one
	// scheduling hiccup cannot fail the run.
	yard := newYardstick()
	warm, ref := time.Duration(1<<62-1), time.Duration(1<<62-1)
	for i := 0; i < 3; i++ {
		d, outcome := timedPost(t, ts, body)
		if outcome != CacheHit {
			t.Fatalf("warm request %d X-Cache = %q, want hit", i, outcome)
		}
		warm = min(warm, d)
	}
	for i := 0; i < 3; i++ {
		ref = min(ref, yard())
	}
	t.Logf("best of 3: warm %v, yardstick %v (ratio %.1f); cold %v (ratio %.1f)",
		warm, ref, float64(ref)/float64(warm), cold, float64(cold)/float64(warm))
	if warm >= ref/20 {
		t.Errorf("warm-cache latency %v is not under 5%% of the yardstick %v", warm, ref)
	}
}

// BenchmarkServeFlowCold measures the full uncached service round trip
// on the 300-sink case; BenchmarkServeFlowWarm the cached one. Their
// ratio is the margin behind TestServeWarmCacheLatencyFloor.
func BenchmarkServeFlowCold(b *testing.B) {
	ts := httptest.NewServer(New(Config{CacheEntries: 1}).Handler())
	defer ts.Close()
	body := lat300Request(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A distinct seed per iteration defeats the cache.
		spec := testutil.UniformSpec("cold", 300, 3000, int64(i+1))
		req, _ := json.Marshal(&FlowRequest{Spec: &spec, Scheme: "smart-ndr"})
		resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	_ = body
}

func BenchmarkServeFlowWarm(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := lat300Request(b)
	resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}
