package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"smartndr/internal/par"
	"smartndr/internal/serve"
)

// Meta is the per-call metadata a transport reports alongside the
// response: the remote cache outcome (from the X-Cache header; empty
// for loopback calls, which run under the caller's own cache).
type Meta struct {
	Cache string
}

// Transport executes one resolved request against one backend. The two
// implementations are LocalTransport (an in-process loopback shard) and
// HTTPTransport (a worker reached over the wire). Calls run untraced:
// a worker records its own span tree, and hedged branches run on their
// own goroutines, where the tracer's ambient span stack is off-limits.
type Transport interface {
	Flow(ctx context.Context, req *serve.FlowRequest) (*serve.FlowResponse, Meta, error)
	Sweep(ctx context.Context, req *serve.SweepRequest) (*serve.SweepResponse, Meta, error)
	// Check probes the backend's health (GET /v1/healthz for HTTP;
	// always healthy for loopback).
	Check(ctx context.Context) error
}

// LocalTransport is the in-process loopback backend: calls land
// directly on a serve.Runner with no serialization and no network.
type LocalTransport struct {
	Runner serve.Runner
}

// Flow implements Transport.
func (t *LocalTransport) Flow(ctx context.Context, req *serve.FlowRequest) (*serve.FlowResponse, Meta, error) {
	resp, err := t.Runner.RunFlow(ctx, req, nil)
	return resp, Meta{}, err
}

// Sweep implements Transport.
func (t *LocalTransport) Sweep(ctx context.Context, req *serve.SweepRequest) (*serve.SweepResponse, Meta, error) {
	resp, err := t.Runner.RunSweep(ctx, req, nil)
	return resp, Meta{}, err
}

// Check implements Transport; the loopback backend is this process.
func (t *LocalTransport) Check(ctx context.Context) error { return nil }

// retryable reports whether err should move the call to another
// replica: transport-level failures, refusal/overload statuses, and
// frontend-side gate saturation — but never request errors (a 400 will
// fail identically everywhere) and never cancellation. errors.Is is
// essential here: http.Client.Do wraps a canceled context in
// *url.Error, and par.Hedge cancels the losing branch on every hedge
// win, so a bare == would let wrapped cancels fall into the network
// catch-all.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *serve.StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code >= 500
	}
	// URL/network errors from the HTTP client land here, as does
	// par.ErrSaturated from the frontend's own admission gate.
	return true
}

// marksDown reports whether a retryable err is also a health signal
// that should take the backend out of rotation. par.ErrSaturated is
// excluded: it comes from the frontend's own per-backend gate, not the
// wire, so a momentarily full local queue says nothing about the
// shard's health — cooling the owner down would move its whole key arc
// off-owner and trigger duplicate cold runs.
func marksDown(err error) bool {
	return retryable(err) && !errors.Is(err, par.ErrSaturated)
}

// HTTPTransport reaches one worker's smartndrd over its HTTP API.
type HTTPTransport struct {
	// Base is the worker's base URL, e.g. "http://10.0.0.7:8147".
	Base string
	// Client defaults to a dedicated client with sane pooling.
	Client *http.Client
}

// defaultHTTPClient is shared across HTTPTransports that don't bring
// their own, so connection pools are reused per-destination.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return defaultHTTPClient
}

// post sends one JSON request and decodes the response into out,
// returning the remote cache outcome. A non-2xx response becomes a
// *serve.StatusError carrying the worker's status and error text.
func (t *HTTPTransport) post(ctx context.Context, path string, in, out any) (Meta, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return Meta{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+path, bytes.NewReader(body))
	if err != nil {
		return Meta{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client().Do(req)
	if err != nil {
		return Meta{}, err
	}
	defer resp.Body.Close()
	meta := Meta{Cache: resp.Header.Get("X-Cache")}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return meta, err
	}
	if resp.StatusCode != http.StatusOK {
		return meta, backendStatus(resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return meta, fmt.Errorf("cluster: decoding %s response: %w", path, err)
	}
	return meta, nil
}

// Flow implements Transport.
func (t *HTTPTransport) Flow(ctx context.Context, req *serve.FlowRequest) (*serve.FlowResponse, Meta, error) {
	var out serve.FlowResponse
	meta, err := t.post(ctx, "/v1/flow", req, &out)
	if err != nil {
		return nil, meta, err
	}
	return &out, meta, nil
}

// Sweep implements Transport.
func (t *HTTPTransport) Sweep(ctx context.Context, req *serve.SweepRequest) (*serve.SweepResponse, Meta, error) {
	var out serve.SweepResponse
	meta, err := t.post(ctx, "/v1/sweep", req, &out)
	if err != nil {
		return nil, meta, err
	}
	return &out, meta, nil
}

// Check implements Transport: GET /v1/healthz, healthy only on 200 (a
// draining worker answers 503 and stops receiving new work).
func (t *HTTPTransport) Check(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return backendStatus(resp.StatusCode, data)
	}
	return nil
}

// backendStatus wraps a worker's non-2xx answer. The frontend's serve
// layer honors the code, so a worker's 400 reaches the client as 400.
func backendStatus(code int, body []byte) error {
	return &serve.StatusError{Code: code,
		Err: fmt.Errorf("cluster: backend status %d: %s", code, errorText(body))}
}

// errorText extracts the server's error message from a response body,
// falling back to the raw bytes (bounded) when it is not the standard
// {"error": ...} shape.
func errorText(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	const max = 200
	if len(data) > max {
		data = data[:max]
	}
	return string(bytes.TrimSpace(data))
}

// latWindow is a bounded ring of recent call latencies, the source of
// the adaptive hedge delay. A windowed quantile — unlike the
// cumulative obs histograms — forgets old regimes, so a backend that
// was slow an hour ago doesn't poison today's hedge timing.
type latWindow struct {
	mu  sync.Mutex
	buf []float64
	n   int // filled entries
	i   int // next write position
}

func newLatWindow(size int) *latWindow {
	if size < 1 {
		size = 1
	}
	return &latWindow{buf: make([]float64, size)}
}

// Observe records one latency in seconds.
func (w *latWindow) Observe(sec float64) {
	w.mu.Lock()
	w.buf[w.i] = sec
	w.i = (w.i + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Quantile returns the p-quantile of the window (nearest-rank on a
// sorted copy) and the sample count. Returns (0, 0) on an empty
// window.
func (w *latWindow) Quantile(p float64) (float64, int) {
	w.mu.Lock()
	n := w.n
	tmp := make([]float64, n)
	copy(tmp, w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(tmp)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	idx := int(p * float64(n-1))
	return tmp[idx], n
}
