package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"smartndr"
	"smartndr/internal/obs"
)

// Session-store and session-endpoint lifecycle tests. Everything here
// runs against stub handles and an injected clock — no engine, no
// sleeps: time advances by assignment and concurrency is sequenced with
// channels, so the suite is deterministic under -race.

// stubSessionHandle is a SessionHandle whose Apply can be held open on a
// channel, mirroring stubRunner.hold for the session path.
type stubSessionHandle struct {
	bytes int64

	mu      sync.Mutex
	applies int
	gate    chan struct{} // non-nil: Apply blocks here (or on ctx)
	started chan struct{} // non-nil: receives as each Apply begins
}

func (h *stubSessionHandle) Apply(ctx context.Context, edits []smartndr.Edit) ([]byte, string, error) {
	h.mu.Lock()
	h.applies++
	gate := h.gate
	started := h.started
	h.mu.Unlock()
	if started != nil {
		started <- struct{}{}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	key, _ := h.Key(edits)
	body, err := json.Marshal(map[string]int{"edits": len(edits)})
	return body, key, err
}

func (h *stubSessionHandle) Key(edits []smartndr.Edit) (string, error) {
	return fmt.Sprintf("state-%d", len(edits)), nil
}
func (h *stubSessionHandle) Live() []smartndr.Edit { return nil }
func (h *stubSessionHandle) Nodes() int            { return 7 }
func (h *stubSessionHandle) MemoryBytes() int64    { return h.bytes }

func (h *stubSessionHandle) Applies() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.applies
}

// stubSessionRunner extends stubRunner with sessions; every OpenSession
// hands out the next handle from the queue (or a fresh default one).
type stubSessionRunner struct {
	*stubRunner
	mu      sync.Mutex
	handles []*stubSessionHandle // consumed in order; empty → new default
	opened  []*stubSessionHandle
}

func newStubSessionRunner(handles ...*stubSessionHandle) *stubSessionRunner {
	return &stubSessionRunner{stubRunner: newStubRunner(), handles: handles}
}

func (sr *stubSessionRunner) OpenSession(ctx context.Context, req *FlowRequest, tr *obs.Tracer) (SessionHandle, error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var h *stubSessionHandle
	if len(sr.handles) > 0 {
		h, sr.handles = sr.handles[0], sr.handles[1:]
	} else {
		h = &stubSessionHandle{bytes: 1 << 10}
	}
	sr.opened = append(sr.opened, h)
	return h, nil
}

// fakeClock is a mutex-guarded settable clock for Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(5000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func postSession(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp, readBody(t, resp)
}

const stubCreateBody = `{"bench":"cns01"}`

// createStubSession opens one session against a stub server and returns
// its ID.
func createStubSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, out := postSession(t, ts, "/v1/session", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", resp.StatusCode, out)
	}
	return decodeSessionResponse(t, out).Session
}

func TestSessionStoreTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	sr := newStubSessionRunner()
	s := New(Config{Runner: sr, SessionTTL: time.Minute, Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := createStubSession(t, ts, stubCreateBody)

	// Uses refresh the TTL: touch at +30s, then the session survives
	// +80s total (50s past the refreshed deadline's start, under 60s).
	clock.Advance(30 * time.Second)
	if resp, out := postSession(t, ts, "/v1/session/"+id+"/delta",
		`{"edits":[{"op":"in_slew","in_slew_ps":50}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta at +30s: %d: %s", resp.StatusCode, out)
	}
	clock.Advance(50 * time.Second)
	resp, err := http.Get(ts.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read at +80s (refreshed at +30s) = %d, want 200", resp.StatusCode)
	}

	// Then it idles past the full TTL and lazily expires.
	clock.Advance(61 * time.Second)
	resp, out := postSession(t, ts, "/v1/session/"+id+"/delta",
		`{"edits":[{"op":"in_slew","in_slew_ps":40}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta after TTL = %d, want 404: %s", resp.StatusCode, out)
	}
	if got := s.reg.Counter("serve.session_expired"); got != 1 {
		t.Errorf("serve.session_expired = %v, want 1", got)
	}

	// A request ttl_ms below the server bound shortens the session's
	// life; one above it is clamped to the bound.
	short := createStubSession(t, ts, `{"bench":"cns01","ttl_ms":10000}`)
	long := createStubSession(t, ts, `{"bench":"cns02","ttl_ms":3600000}`)
	clock.Advance(11 * time.Second)
	if resp, _ := http.Get(ts.URL + "/v1/session/" + short); resp.StatusCode != http.StatusNotFound {
		readBody(t, resp)
		t.Errorf("short-TTL session alive at +11s: %d", resp.StatusCode)
	} else {
		readBody(t, resp)
	}
	clock.Advance(55 * time.Second) // +66s > the 60s server bound
	if resp, _ := http.Get(ts.URL + "/v1/session/" + long); resp.StatusCode != http.StatusNotFound {
		readBody(t, resp)
		t.Errorf("ttl_ms extended the session past the server bound: %d", resp.StatusCode)
	} else {
		readBody(t, resp)
	}
}

func TestSessionStoreLRUEvictionUnderPressure(t *testing.T) {
	clock := newFakeClock()
	// Four slots by count but only 3 KiB by bytes: byte pressure binds
	// first with 1-KiB handles.
	sr := newStubSessionRunner(
		&stubSessionHandle{bytes: 1 << 10},
		&stubSessionHandle{bytes: 1 << 10},
		&stubSessionHandle{bytes: 1 << 10},
		&stubSessionHandle{bytes: 1 << 10},
	)
	s := New(Config{Runner: sr, MaxSessions: 4, SessionMaxBytes: 3 << 10, Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := createStubSession(t, ts, `{"bench":"cns01"}`)
	b := createStubSession(t, ts, `{"bench":"cns02"}`)
	c := createStubSession(t, ts, `{"bench":"cns03"}`)

	// Touch a so b becomes the LRU victim.
	if resp, _ := http.Get(ts.URL + "/v1/session/" + a); resp.StatusCode != http.StatusOK {
		t.Fatalf("read a: %d", resp.StatusCode)
	} else {
		readBody(t, resp)
	}
	d := createStubSession(t, ts, `{"bench":"cns04"}`)

	for id, want := range map[string]int{
		a: http.StatusOK, b: http.StatusNotFound, c: http.StatusOK, d: http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + "/v1/session/" + id)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != want {
			t.Errorf("session %s read = %d, want %d", id, resp.StatusCode, want)
		}
	}
	if got := s.reg.Counter("serve.session_evicted"); got != 1 {
		t.Errorf("serve.session_evicted = %v, want 1", got)
	}
	st := s.sessions.stats()
	if st.Live != 3 || st.Bytes != 3<<10 {
		t.Errorf("stats after eviction = %+v, want 3 live / 3072 bytes", st)
	}

	// An oversize session (bigger than the whole byte budget) still gets
	// admitted — alone.
	sr.mu.Lock()
	sr.handles = append(sr.handles, &stubSessionHandle{bytes: 64 << 10})
	sr.mu.Unlock()
	huge := createStubSession(t, ts, `{"bench":"cns05"}`)
	st = s.sessions.stats()
	if st.Live != 1 || st.Bytes != 64<<10 {
		t.Errorf("stats after oversize admit = %+v, want it alone", st)
	}
	if resp, _ := http.Get(ts.URL + "/v1/session/" + huge); resp.StatusCode != http.StatusOK {
		t.Errorf("oversize session not live: %d", resp.StatusCode)
	} else {
		readBody(t, resp)
	}
}

// TestSessionConcurrentDeltaReadEvict hammers one store from three
// directions at once — writers stacking deltas on a session, readers
// polling it, and a creator forcing LRU evictions — and checks the
// serialization invariants afterwards. Synchronization is purely
// WaitGroup + channel; run under -race this is the data-race probe for
// the store and the per-session locks.
func TestSessionConcurrentDeltaReadEvict(t *testing.T) {
	clock := newFakeClock()
	sr := newStubSessionRunner()
	s := New(Config{Runner: sr, MaxSessions: 2, MaxConcurrent: 8, Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	target := createStubSession(t, ts, stubCreateBody)

	const writers, readers, creators = 4, 4, 2
	const perWorker = 8
	var wg sync.WaitGroup
	errs := make(chan string, (writers+readers+creators)*perWorker)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/session/"+target+"/delta", "application/json",
					bytes.NewReader([]byte(`{"edits":[{"op":"in_slew","in_slew_ps":45}]}`)))
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				// 200 while live, 404 once the creators evict it.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errs <- fmt.Sprintf("delta status %d", resp.StatusCode)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(ts.URL + "/v1/session/" + target)
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errs <- fmt.Sprintf("read status %d", resp.StatusCode)
				}
			}
		}()
	}
	for c := 0; c < creators; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/session", "application/json",
					bytes.NewReader([]byte(fmt.Sprintf(`{"bench":"cns0%d"}`, 2+c))))
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("create status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The store's accounting survived the storm.
	st := s.sessions.stats()
	if st.Live < 1 || st.Live > 2 {
		t.Errorf("live sessions = %d, want 1..2", st.Live)
	}
	// Each live session is charged its 1-KiB handle plus every rev its
	// deltas appended.
	var want int64
	s.sessions.mu.Lock()
	for _, ss := range s.sessions.byID {
		want += 1 << 10
		ss.mu.RLock()
		for _, r := range ss.revs[1:] {
			want += revBytes(r)
		}
		ss.mu.RUnlock()
	}
	s.sessions.mu.Unlock()
	if st.Bytes != want {
		t.Errorf("bytes = %d for %d live 1-KiB sessions, want %d", st.Bytes, st.Live, want)
	}
}

// TestSessionDrainFinishesInFlightDelta: during drain the session
// endpoints refuse new work with 503, but a delta already inside the
// engine completes — the same guarantee the run endpoints give.
func TestSessionDrainFinishesInFlightDelta(t *testing.T) {
	h := &stubSessionHandle{
		bytes:   1 << 10,
		gate:    make(chan struct{}),
		started: make(chan struct{}, 4),
	}
	sr := newStubSessionRunner(h)
	s := New(Config{Runner: sr})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The create's initial Apply would also hit the gate, so create with
	// it open and re-arm afterwards.
	close(h.gate)
	id := createStubSession(t, ts, stubCreateBody)
	<-h.started
	h.mu.Lock()
	h.gate = make(chan struct{})
	gate := h.gate
	h.mu.Unlock()

	// One delta in flight, held open inside Apply.
	deltaDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/session/"+id+"/delta", "application/json",
			bytes.NewReader([]byte(`{"edits":[{"op":"in_slew","in_slew_ps":50}]}`)))
		if err != nil {
			deltaDone <- -1
			return
		}
		resp.Body.Close()
		deltaDone <- resp.StatusCode
	}()
	<-h.started

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	for !s.Draining() {
		runtime.Gosched()
	}

	// New session work is refused while draining.
	if resp, _ := postSession(t, ts, "/v1/session", stubCreateBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create during drain = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postSession(t, ts, "/v1/session/"+id+"/delta",
		`{"edits":[{"op":"in_slew","in_slew_ps":55}]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delta during drain = %d, want 503", resp.StatusCode)
	}
	select {
	case err := <-drainErr:
		t.Fatalf("drain returned %v with a delta still in flight", err)
	default:
	}

	// The in-flight delta completes and drain then returns.
	close(gate)
	if status := <-deltaDone; status != http.StatusOK {
		t.Fatalf("in-flight delta finished %d, want 200", status)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSessionEndpointErrors sweeps the session endpoints' failure
// surface: wrong methods, unknown IDs, malformed and invalid bodies,
// out-of-range rollbacks, and a runner with no session support.
func TestSessionEndpointErrors(t *testing.T) {
	sr := newStubSessionRunner()
	s := New(Config{Runner: sr})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := createStubSession(t, ts, stubCreateBody)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		return resp.StatusCode
	}
	post := func(path, body string) int {
		resp, out := postSession(t, ts, path, body)
		_ = out
		return resp.StatusCode
	}

	cases := []struct {
		name string
		got  int
		want int
	}{
		{"GET create endpoint", get("/v1/session"), http.StatusMethodNotAllowed},
		{"GET delta endpoint", get("/v1/session/" + id + "/delta"), http.StatusMethodNotAllowed},
		{"delta unknown id", post("/v1/session/nope/delta", `{"edits":[{"op":"in_slew","in_slew_ps":50}]}`), http.StatusNotFound},
		{"read unknown id", get("/v1/session/nope"), http.StatusNotFound},
		{"create malformed", post("/v1/session", `{"bench":`), http.StatusBadRequest},
		{"create unknown field", post("/v1/session", `{"bench":"cns01","bogus":1}`), http.StatusBadRequest},
		{"create negative ttl", post("/v1/session", `{"bench":"cns01","ttl_ms":-5}`), http.StatusBadRequest},
		{"delta empty", post("/v1/session/"+id+"/delta", `{}`), http.StatusBadRequest},
		{"delta both modes", post("/v1/session/"+id+"/delta", `{"edits":[{"op":"in_slew","in_slew_ps":50}],"rollback_to":0}`), http.StatusBadRequest},
		{"delta bad op", post("/v1/session/"+id+"/delta", `{"edits":[{"op":"warp_sink"}]}`), http.StatusBadRequest},
		{"rollback negative", post("/v1/session/"+id+"/delta", `{"rollback_to":-1}`), http.StatusBadRequest},
		{"rollback beyond", post("/v1/session/"+id+"/delta", `{"rollback_to":99}`), http.StatusBadRequest},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// DELETE closes; the second DELETE has nothing to close.
	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		return resp.StatusCode
	}
	if got := del(); got != http.StatusOK {
		t.Errorf("DELETE = %d, want 200", got)
	}
	if got := del(); got != http.StatusNotFound {
		t.Errorf("second DELETE = %d, want 404", got)
	}
	if got := s.reg.Counter("serve.session_closed"); got != 1 {
		t.Errorf("serve.session_closed = %v, want 1", got)
	}

	// A runner without session support answers 501.
	plain := New(Config{Runner: newStubRunner()})
	tp := httptest.NewServer(plain.Handler())
	defer tp.Close()
	resp, out := postSession(t, tp, "/v1/session", stubCreateBody)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("sessionless runner create = %d, want 501: %s", resp.StatusCode, out)
	}
}

// TestSessionBytesCountRevs: every rev a delta appends is charged to the
// store's byte accounting, so the statsz bytes, the session_bytes gauge
// and the -session-max-bytes budget grow with a session's history.
func TestSessionBytesCountRevs(t *testing.T) {
	clock := newFakeClock()
	s := New(Config{Runner: newStubSessionRunner(), Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := createStubSession(t, ts, stubCreateBody)
	before := s.sessions.stats().Bytes
	const deltas = 40
	for i := 0; i < deltas; i++ {
		body := fmt.Sprintf(`{"edits":[{"op":"in_slew","in_slew_ps":%d},{"op":"sink_cap","sink":0,"cap":%de-15}]}`, 30+i, 1+i)
		if resp, out := postSession(t, ts, "/v1/session/"+id+"/delta", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: %d: %s", i, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	// The live state holds two edits throughout, so a delta rev and a
	// checkpoint rev cost the same.
	want := before + deltas*(revSlotBytes+2*editBytes)
	if st.Sessions.Bytes != want {
		t.Errorf("statsz bytes after %d deltas = %d, want %d (%d before)", deltas, st.Sessions.Bytes, want, before)
	}
	if got := s.reg.Gauges()["serve.session_bytes"]; got != float64(want) {
		t.Errorf("serve.session_bytes = %v, want %d", got, want)
	}
}

// TestSessionMetricsAndStatsz: the session counters, gauges, and the
// statsz session block move with the lifecycle.
func TestSessionMetricsAndStatsz(t *testing.T) {
	clock := newFakeClock()
	sr := newStubSessionRunner()
	s := New(Config{Runner: sr, MaxSessions: 8, SessionMaxBytes: 1 << 20, Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := createStubSession(t, ts, stubCreateBody)
	if resp, out := postSession(t, ts, "/v1/session/"+id+"/delta",
		`{"edits":[{"op":"in_slew","in_slew_ps":50}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d: %s", resp.StatusCode, out)
	}
	rb := `{"rollback_to":0}`
	if resp, out := postSession(t, ts, "/v1/session/"+id+"/delta", rb); resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %d: %s", resp.StatusCode, out)
	}

	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions.Live != 1 || st.Sessions.MaxSessions != 8 {
		t.Errorf("statsz sessions = %+v", st.Sessions)
	}
	// The handle's 1 KiB plus the two revs the deltas appended: a
	// one-edit delta rev and the rollback's full (empty) state.
	wantBytes := int64(1<<10) + revSlotBytes + editBytes + revSlotBytes
	if st.Sessions.Bytes != wantBytes || st.Sessions.MaxBytes != 1<<20 {
		t.Errorf("statsz session bytes = %+v", st.Sessions)
	}
	// Both delta requests count as deltas; the rollback one additionally
	// lands in the rollback counter.
	for name, want := range map[string]float64{
		"serve.session_created":   1,
		"serve.session_deltas":    2,
		"serve.session_rollbacks": 1,
	} {
		if got := s.reg.Counter(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	gauges := s.reg.Gauges()
	if gauges["serve.session_live"] != 1 || gauges["serve.session_bytes"] != float64(wantBytes) {
		t.Errorf("session gauges = live %v bytes %v",
			gauges["serve.session_live"], gauges["serve.session_bytes"])
	}

	// Latency histograms landed under the session endpoint classes.
	if snap := s.lat[epSessionCreate][latCold].Snapshot(); snap.Count != 1 {
		t.Errorf("session_create cold count = %d, want 1", snap.Count)
	}
	if snap := s.lat[epSessionDelta][latCold].Snapshot(); snap.Count != 2 {
		t.Errorf("session_delta cold count = %d, want 2", snap.Count)
	}
}
