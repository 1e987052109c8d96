package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"smartndr/internal/core"
	"smartndr/internal/par"
)

func TestStatusOf(t *testing.T) {
	get := httptest.NewRequest(http.MethodGet, "/v1/flow", nil)
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"explicit status", &StatusError{Code: http.StatusNotFound, Err: errors.New("gone")}, http.StatusNotFound},
		{"wrapped explicit status", fmt.Errorf("call: %w", &StatusError{Code: http.StatusRequestEntityTooLarge, Err: errors.New("big")}), http.StatusRequestEntityTooLarge},
		{"explicit status wins over its cause", &StatusError{Code: http.StatusBadGateway, Err: context.DeadlineExceeded}, http.StatusBadGateway},
		{"bad request", badRequest(errors.New("malformed")), http.StatusBadRequest},
		{"wrong method", errMethod(get, http.MethodPost), http.StatusMethodNotAllowed},
		{"unknown session", errNoSession("s9"), http.StatusNotFound},
		{"saturated", par.ErrSaturated, http.StatusTooManyRequests},
		{"wrapped saturated", fmt.Errorf("gate: %w", par.ErrSaturated), http.StatusTooManyRequests},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"deadline inside url.Error", &url.Error{Op: "Post", URL: "http://w1/v1/flow", Err: context.DeadlineExceeded}, http.StatusGatewayTimeout},
		{"canceled", context.Canceled, http.StatusServiceUnavailable},
		{"invalid edit", fmt.Errorf("%w: node_rule node 9999999", core.ErrEdit), http.StatusBadRequest},
		{"engine failure", errors.New("engine exploded"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("%s: statusOf(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// TestStatusPolicyEndpointParity: one failure gets one status and one
// tally whichever endpoint carries it — /v1/flow, a /v1/batch item, or
// /v1/session.
func TestStatusPolicyEndpointParity(t *testing.T) {
	// An edit addressing a node the tree does not have is the client's
	// fault on every endpoint.
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	const badEdit = `{"bench":"cns01","edits":[{"op":"node_rule","node":9999999}]}`
	resp := postFlow(t, ts, badEdit)
	if out := readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/flow status = %d, want 400: %s", resp.StatusCode, out)
	}
	if item := batchItem(t, ts, `{"requests":[`+badEdit+`]}`); item.Status != http.StatusBadRequest {
		t.Errorf("/v1/batch item = %+v, want status 400", item)
	}
	if resp, out := postSession(t, ts, "/v1/session", badEdit); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/session status = %d, want 400: %s", resp.StatusCode, out)
	}

	// An expired deadline is a 504 counted once as a timeout and once
	// as an error, on every endpoint.
	sr := newStubSessionRunner(&stubSessionHandle{gate: make(chan struct{})})
	sr.waitCtx = true
	s := New(Config{Runner: sr})
	stub := httptest.NewServer(s.Handler())
	defer stub.Close()
	calls := []struct {
		endpoint string
		call     func() int
	}{
		{"/v1/flow", func() int {
			resp := postFlow(t, stub, `{"bench":"cns02","timeout_ms":1}`)
			readBody(t, resp)
			return resp.StatusCode
		}},
		{"/v1/batch", func() int {
			return batchItem(t, stub, `{"requests":[{"bench":"cns03"}],"timeout_ms":1}`).Status
		}},
		{"/v1/session", func() int {
			resp, _ := postSession(t, stub, "/v1/session", `{"bench":"cns04","timeout_ms":1}`)
			return resp.StatusCode
		}},
	}
	for _, c := range calls {
		timeouts, errs := s.reg.Counter("serve.timeouts"), s.reg.Counter("serve.errors")
		if got := c.call(); got != http.StatusGatewayTimeout {
			t.Errorf("%s: expired deadline = %d, want 504", c.endpoint, got)
		}
		dt, de := s.reg.Counter("serve.timeouts")-timeouts, s.reg.Counter("serve.errors")-errs
		if dt != 1 || de != 1 {
			t.Errorf("%s: expired deadline moved serve.timeouts by %v and serve.errors by %v, want 1 and 1",
				c.endpoint, dt, de)
		}
	}
}

// batchItem posts a one-item batch and returns its item result.
func batchItem(t *testing.T, ts *httptest.Server, body string) BatchItemResult {
	t.Helper()
	resp := postBatch(t, ts, body)
	out := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch envelope status %d: %s", resp.StatusCode, out)
	}
	var br BatchResponse
	if err := json.Unmarshal(out, &br); err != nil || len(br.Results) != 1 {
		t.Fatalf("batch body %s: %v", out, err)
	}
	return br.Results[0]
}
