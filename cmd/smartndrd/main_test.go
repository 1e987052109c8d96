package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a shutdown function that triggers drain and waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (base string, shutdown func() error) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(args, io.Discard, ready, stop) }()
	addr := <-ready
	return "http://" + addr, func() error {
		close(stop)
		return <-done
	}
}

func TestDaemonServesAndDrains(t *testing.T) {
	base, shutdown := startDaemon(t)

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	// One real (tiny) flow through the full daemon stack.
	body := `{"spec":{"name":"d","sinks":12,"die_x":300,"die_y":300,"seed":3,"cap_min":1e-15,"cap_max":3e-15}}`
	resp, err = http.Post(base+"/v1/flow", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow = %d: %s", resp.StatusCode, out)
	}
	var flowOut map[string]any
	if err := json.Unmarshal(out, &flowOut); err != nil {
		t.Fatalf("flow response not JSON: %v", err)
	}
	if flowOut["key"] == "" || flowOut["bench"] != "d" {
		t.Errorf("flow response %v", flowOut)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The listener is gone after drain.
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

func TestDaemonWritesTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "spans.jsonl")
	base, shutdown := startDaemon(t, "-trace", trace)

	body := `{"spec":{"name":"tr","sinks":8,"die_x":200,"die_y":200,"seed":1,"cap_min":1e-15,"cap_max":3e-15}}`
	resp, err := http.Post(base+"/v1/flow", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"serve.flow"`) {
		t.Errorf("trace file lacks the request span:\n%s", data)
	}
}

func TestDaemonTelemetryEndpoints(t *testing.T) {
	base, shutdown := startDaemon(t)
	defer shutdown()

	body := `{"spec":{"name":"tz","sinks":8,"die_x":200,"die_y":200,"seed":2,"cap_min":1e-15,"cap_max":3e-15}}`
	resp, err := http.Post(base+"/v1/flow", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow = %d", resp.StatusCode)
	}

	// /metricsz: full Prometheus exposition, request + span histograms.
	resp, err = http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"smartndr_serve_requests_total 1",
		"smartndr_serve_flow_cold_seconds_count 1",
		`smartndr_span_duration_seconds_count{path="serve.flow"} 1`,
		"smartndr_go_goroutines",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("daemon exposition missing %q", want)
		}
	}

	// /v1/tracez: the request's span tree is retained by default.
	resp, err = http.Get(base + "/v1/tracez")
	if err != nil {
		t.Fatal(err)
	}
	tz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tracez = %d: %s", resp.StatusCode, tz)
	}
	var page struct {
		Capacity int `json:"capacity"`
		Total    int `json:"total"`
		Slowest  []struct {
			Endpoint string `json:"endpoint"`
			Spans    []struct {
				Span string `json:"span"`
			} `json:"spans"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(tz, &page); err != nil {
		t.Fatalf("tracez not JSON: %v: %s", err, tz)
	}
	if page.Capacity != 64 || page.Total != 1 || len(page.Slowest) != 1 {
		t.Errorf("tracez page = %+v", page)
	}
	if len(page.Slowest) == 1 &&
		(len(page.Slowest[0].Spans) == 0 || page.Slowest[0].Spans[0].Span != "serve.flow") {
		t.Errorf("tracez slowest spans = %+v, want serve.flow root", page.Slowest[0].Spans)
	}
}

func TestDaemonTelemetryDisabled(t *testing.T) {
	base, shutdown := startDaemon(t, "-metrics=false", "-tracez-capacity", "0")
	defer shutdown()

	// Tracez is gone; metricsz still serves the (span-free) registry.
	resp, err := http.Get(base + "/v1/tracez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled tracez = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz = %d", resp.StatusCode)
	}
	if strings.Contains(string(expo), "smartndr_span_duration_seconds") {
		t.Error("span histograms present with -metrics=false")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, io.Discard, nil, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

func TestParseBackends(t *testing.T) {
	cases := []struct {
		name, list string
		wantErr    bool
		wantSpecs  int
	}{
		{"frontend empty entries", ", ,", true, 0},
		{"frontend urls", "http://a:1,http://b:2", false, 2},
		{"frontend named", "w1=http://a:1, w2=http://b:2 ,self=loopback", false, 3},
		{"frontend https", "w1=https://a:1,self=loopback", false, 2},
		{"bare token is not loopback", "self,w1=http://a:1", true, 0},
		{"scheme-less url", "w1=a:1", true, 0},
	}
	for _, c := range cases {
		specs, err := parseBackends(c.list)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(specs) != c.wantSpecs {
			t.Errorf("%s: %d specs, want %d", c.name, len(specs), c.wantSpecs)
		}
	}

	specs, err := parseBackends("w1=http://a:1,self=loopback")
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Name != "w1" || specs[0].URL != "http://a:1" {
		t.Errorf("named spec = %+v", specs[0])
	}
	if specs[1].Name != "self" || specs[1].URL != "" {
		t.Errorf("loopback spec = %+v, want empty URL", specs[1])
	}
}

// TestDaemonClusterRoles runs the full fleet through real processes'
// worth of daemons in-process: two workers and a frontend sharding
// across them plus its own loopback shard, checked byte-for-byte
// against a standalone daemon.
func TestDaemonClusterRoles(t *testing.T) {
	w1, stopW1 := startDaemon(t)
	defer stopW1()
	w2, stopW2 := startDaemon(t)
	defer stopW2()
	fe, stopFE := startDaemon(t,
		"-backends", "w1="+w1+",w2="+w2+",self=loopback",
		"-probe-interval", "100ms")
	defer stopFE()
	sa, stopSA := startDaemon(t)
	defer stopSA()

	post := func(base, path, body string) (int, []byte) {
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	flow := `{"spec":{"name":"clr","sinks":10,"die_x":250,"die_y":250,"seed":4,"cap_min":1e-15,"cap_max":3e-15}}`
	feStatus, feBody := post(fe, "/v1/flow", flow)
	if feStatus != http.StatusOK {
		t.Fatalf("frontend flow = %d: %s", feStatus, feBody)
	}
	saStatus, saBody := post(sa, "/v1/flow", flow)
	if saStatus != http.StatusOK {
		t.Fatalf("standalone flow = %d: %s", saStatus, saBody)
	}
	if !bytes.Equal(feBody, saBody) {
		t.Errorf("frontend flow differs from standalone:\n%s\n%s", feBody, saBody)
	}

	batch := `{"requests":[` + flow + `,` + flow + `]}`
	feStatus, feBody = post(fe, "/v1/batch", batch)
	if feStatus != http.StatusOK {
		t.Fatalf("frontend batch = %d: %s", feStatus, feBody)
	}
	saStatus, saBody = post(sa, "/v1/batch", batch)
	if saStatus != http.StatusOK || !bytes.Equal(feBody, saBody) {
		t.Errorf("frontend batch differs from standalone (%d):\n%s\n%s", saStatus, feBody, saBody)
	}

	// The frontend's statsz exposes the three shards.
	resp, err := http.Get(fe + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		Shards []struct {
			Shard    string `json:"shard"`
			Requests uint64 `json:"requests"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(stBody, &st); err != nil {
		t.Fatalf("frontend statsz not JSON: %v", err)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("frontend statsz has %d shards, want 3: %s", len(st.Shards), stBody)
	}
	total := uint64(0)
	for _, sh := range st.Shards {
		total += sh.Requests
	}
	if total == 0 {
		t.Error("no shard recorded any request")
	}

	// -backends alone decides the role: the -role flag is gone, and a
	// frontend without backend entries fails.
	if err := run([]string{"-role", "worker"}, io.Discard, nil, nil); err == nil {
		t.Error("removed -role flag accepted")
	}
	if err := run([]string{"-backends", " , "}, io.Discard, nil, nil); err == nil {
		t.Error("frontend accepted an empty backend list")
	}
}

// syncBuffer is a goroutine-safe stderr sink for a daemon under test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonSingleBackendFrontend: -backends with one HTTP backend is a
// frontend like any other — it routes (and says so), and its one shard
// serves the worker's bytes.
func TestDaemonSingleBackendFrontend(t *testing.T) {
	w1, stopW1 := startDaemon(t)
	defer stopW1()

	var stderr syncBuffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-backends", "w1=" + w1}, &stderr, ready, stop)
	}()
	var fe string
	select {
	case addr := <-ready:
		fe = "http://" + addr
	case err := <-done:
		t.Fatalf("frontend did not start: %v", err)
	}
	defer func() {
		close(stop)
		<-done
	}()
	if out := stderr.String(); !strings.Contains(out, "routing across 1 backends") {
		t.Errorf("single-backend frontend does not route; stderr:\n%s", out)
	}

	flow := `{"spec":{"name":"one","sinks":10,"die_x":250,"die_y":250,"seed":6,"cap_min":1e-15,"cap_max":3e-15}}`
	post := func(base string) []byte {
		resp, err := http.Post(base+"/v1/flow", "application/json", strings.NewReader(flow))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s flow = %d: %s", base, resp.StatusCode, out)
		}
		return out
	}
	if feBody, wBody := post(fe), post(w1); !bytes.Equal(feBody, wBody) {
		t.Errorf("frontend flow differs from its worker's:\n%s\n%s", feBody, wBody)
	}
}

// TestDaemonSessionRoundTrip drives the session lifecycle through the
// full daemon stack: create, delta, read, delete, and the statsz gauge.
func TestDaemonSessionRoundTrip(t *testing.T) {
	base, shutdown := startDaemon(t, "-session-ttl", "1m", "-max-sessions", "4")
	defer shutdown()

	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	create := `{"spec":{"name":"sess","sinks":14,"die_x":300,"die_y":300,"seed":9,"cap_min":1e-15,"cap_max":3e-15}}`
	status, body := post("/v1/session", create)
	if status != http.StatusOK {
		t.Fatalf("session create = %d: %s", status, body)
	}
	var created struct {
		Session string          `json:"session"`
		Rev     int             `json:"rev"`
		Key     string          `json:"key"`
		Nodes   int             `json:"nodes"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("create response not JSON: %v: %s", err, body)
	}
	if created.Session == "" || created.Key == "" || len(created.Result) == 0 || created.Nodes == 0 {
		t.Fatalf("create response incomplete: %s", body)
	}

	// The pristine session result is byte-identical to a cold flow run.
	status, coldBody := post("/v1/flow", create)
	if status != http.StatusOK {
		t.Fatalf("cold flow = %d: %s", status, coldBody)
	}
	if !bytes.Equal(created.Result, coldBody) {
		t.Errorf("session create result differs from cold flow:\n%s\n%s", created.Result, coldBody)
	}

	// One warm delta moves a sink; the key must change with the state.
	delta := `{"edits":[{"op":"move_sink","sink":0,"x":40,"y":55}]}`
	status, body = post("/v1/session/"+created.Session+"/delta", delta)
	if status != http.StatusOK {
		t.Fatalf("session delta = %d: %s", status, body)
	}
	var edited struct {
		Rev  int    `json:"rev"`
		Revs int    `json:"revs"`
		Key  string `json:"key"`
	}
	if err := json.Unmarshal(body, &edited); err != nil {
		t.Fatalf("delta response not JSON: %v: %s", err, body)
	}
	if edited.Rev != 1 || edited.Revs != 2 || edited.Key == created.Key {
		t.Errorf("delta response = %s, want rev 1 of 2 with a new key", body)
	}

	// Rolling back to rev 0 restores the pristine key.
	status, body = post("/v1/session/"+created.Session+"/delta", `{"rollback_to":0}`)
	if status != http.StatusOK {
		t.Fatalf("rollback = %d: %s", status, body)
	}
	var rolled struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &rolled); err != nil {
		t.Fatal(err)
	}
	if rolled.Key != created.Key {
		t.Errorf("rollback key = %s, want pristine %s", rolled.Key, created.Key)
	}

	// GET returns the envelope; statsz counts the live session.
	resp, err := http.Get(base + "/v1/session/" + created.Session)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session read = %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		Sessions struct {
			Live int `json:"live"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz not JSON: %v", err)
	}
	if st.Sessions.Live != 1 {
		t.Errorf("statsz sessions.live = %d, want 1: %s", st.Sessions.Live, body)
	}

	// DELETE closes it; a second delta 404s.
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/session/"+created.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("session delete = %d, want 200", resp.StatusCode)
	}
	if status, body = post("/v1/session/"+created.Session+"/delta", delta); status != http.StatusNotFound {
		t.Errorf("delta after delete = %d: %s", status, body)
	}
}
