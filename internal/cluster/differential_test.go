package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/serve"
	"smartndr/internal/testutil"
)

// The cluster differential suite pins the cluster layer's core promise:
// a 3-node cluster (frontend + two HTTP workers, with the frontend
// itself owning a loopback shard) and a frontend whose only shard is
// loopback return the exact bytes a single-node smartndrd returns, for
// every endpoint, at any worker count. The cluster layer is a routing
// detail — never a semantic one.

// newWorkerServer starts a real single-node smartndrd HTTP surface.
func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newClusterServer starts a frontend over two HTTP workers plus its
// own loopback shard — the 3-node topology from docs/service.md.
func newClusterServer(t *testing.T) *httptest.Server {
	t.Helper()
	w1 := newWorkerServer(t)
	w2 := newWorkerServer(t)
	runner, err := NewRunner(Config{
		Local: &serve.FlowRunner{},
		Backends: []BackendSpec{
			{Name: "w1", URL: w1.URL},
			{Name: "w2", URL: w2.URL},
			{Name: "self"}, // loopback shard on the frontend itself
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Runner: runner}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newStandaloneClusterServer starts a node whose runner is a cluster
// runner with no backends: one in-process loopback shard, routed like
// any other.
func newStandaloneClusterServer(t *testing.T) *httptest.Server {
	t.Helper()
	runner, err := NewRunner(Config{Local: &serve.FlowRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Runner: runner}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func clusterPost(t *testing.T, ts *httptest.Server, path string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestClusterFlowByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cluster test is not a -short test")
	}
	single := newWorkerServer(t)
	cluster := newClusterServer(t)
	standalone := newStandaloneClusterServer(t)

	for i := 0; i < 4; i++ {
		spec := testutil.UniformSpec(fmt.Sprintf("cdiff%d", i), 24, 600, int64(100+i))
		req := &serve.FlowRequest{Spec: &spec, Scheme: "smart-ndr"}

		refResp, ref := clusterPost(t, single, "/v1/flow", req)
		if refResp.StatusCode != http.StatusOK {
			t.Fatalf("spec %d: single-node status %d: %s", i, refResp.StatusCode, ref)
		}
		clResp, cl := clusterPost(t, cluster, "/v1/flow", req)
		if clResp.StatusCode != http.StatusOK {
			t.Fatalf("spec %d: cluster status %d: %s", i, clResp.StatusCode, cl)
		}
		if !bytes.Equal(ref, cl) {
			t.Errorf("spec %d: cluster flow differs from single node:\n%s\n%s", i, ref, cl)
		}
		if refResp.Header.Get("X-Key") != clResp.Header.Get("X-Key") {
			t.Errorf("spec %d: keys differ: %s vs %s",
				i, refResp.Header.Get("X-Key"), clResp.Header.Get("X-Key"))
		}
		_, sa := clusterPost(t, standalone, "/v1/flow", req)
		if !bytes.Equal(ref, sa) {
			t.Errorf("spec %d: standalone-cluster flow differs from single node:\n%s\n%s", i, ref, sa)
		}

		// A warm replay through the frontend cache is the cold bytes.
		_, warm := clusterPost(t, cluster, "/v1/flow", req)
		if !bytes.Equal(cl, warm) {
			t.Errorf("spec %d: cluster warm replay differs from its cold response", i)
		}
	}
}

func TestClusterSweepByteIdenticalAtAnyWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cluster test is not a -short test")
	}
	spec := testutil.UniformSpec("cdiffsweep", 32, 700, 21)
	arms := []serve.SweepArm{
		{Scheme: "all-default"},
		{Scheme: "blanket", Corner: "slow"},
		{Scheme: "top-k", Corner: "fast"},
		{Scheme: "trunk"},
		{Scheme: "smart", Corner: "typ"},
	}
	single := newWorkerServer(t)
	refResp, ref := clusterPost(t, single, "/v1/sweep",
		&serve.SweepRequest{Spec: &spec, Arms: arms, Workers: 1})
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("single-node sweep status %d: %s", refResp.StatusCode, ref)
	}

	// Fresh cluster per worker count so every run is cold end to end
	// (the sweep key excludes Workers; a shared frontend would replay
	// its cache and make the comparison vacuous).
	for _, workers := range []int{1, 2, 8} {
		cluster := newClusterServer(t)
		clResp, cl := clusterPost(t, cluster, "/v1/sweep",
			&serve.SweepRequest{Spec: &spec, Arms: arms, Workers: workers})
		if clResp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: cluster sweep status %d: %s", workers, clResp.StatusCode, cl)
		}
		if !bytes.Equal(ref, cl) {
			t.Errorf("workers=%d: cluster sweep differs from single node:\n%s\n%s", workers, ref, cl)
		}
		if refResp.Header.Get("X-Key") != clResp.Header.Get("X-Key") {
			t.Errorf("workers=%d: sweep keys differ: %s vs %s",
				workers, refResp.Header.Get("X-Key"), clResp.Header.Get("X-Key"))
		}
	}

	standalone := newStandaloneClusterServer(t)
	_, sa := clusterPost(t, standalone, "/v1/sweep",
		&serve.SweepRequest{Spec: &spec, Arms: arms, Workers: 3})
	if !bytes.Equal(ref, sa) {
		t.Errorf("standalone-cluster sweep differs from single node:\n%s\n%s", ref, sa)
	}
}

func TestClusterBatchByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("differential cluster test is not a -short test")
	}
	specA := testutil.UniformSpec("cbatchA", 20, 500, 31)
	specB := testutil.UniformSpec("cbatchB", 28, 650, 32)
	batch := &serve.BatchRequest{Requests: []serve.FlowRequest{
		{Spec: &specA, Scheme: "smart-ndr"},
		{Spec: &specB, Scheme: "blanket-ndr"},
		{Spec: &specA, Scheme: "smart-ndr"}, // duplicate: shared flight, same bytes
	}}

	single := newWorkerServer(t)
	cluster := newClusterServer(t)
	standalone := newStandaloneClusterServer(t)

	refResp, ref := clusterPost(t, single, "/v1/batch", batch)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("single-node batch status %d: %s", refResp.StatusCode, ref)
	}
	clResp, cl := clusterPost(t, cluster, "/v1/batch", batch)
	if clResp.StatusCode != http.StatusOK {
		t.Fatalf("cluster batch status %d: %s", clResp.StatusCode, cl)
	}
	if !bytes.Equal(ref, cl) {
		t.Errorf("cluster batch differs from single node:\n%s\n%s", ref, cl)
	}
	_, sa := clusterPost(t, standalone, "/v1/batch", batch)
	if !bytes.Equal(ref, sa) {
		t.Errorf("standalone-cluster batch differs from single node:\n%s\n%s", ref, sa)
	}

	// Item-level invariant: each item's flow bytes equal the standalone
	// /v1/flow bytes for the same request.
	var out serve.BatchResponse
	if err := json.Unmarshal(cl, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(batch.Requests) {
		t.Fatalf("batch returned %d results, want %d", len(out.Results), len(batch.Requests))
	}
	for i, res := range out.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("batch item %d status %d: %s", i, res.Status, res.Error)
		}
		_, flow := clusterPost(t, single, "/v1/flow", &batch.Requests[i])
		if !bytes.Equal(bytes.TrimSpace(flow), []byte(res.Flow)) {
			t.Errorf("batch item %d bytes differ from a standalone /v1/flow call:\n%s\n%s",
				i, flow, res.Flow)
		}
	}
}

// TestClusterFrontendRelaysWorker400: a request error is the client's,
// on a frontend as on a single node. One out-of-range edit sent through
// a two-worker frontend comes back 400, and neither worker — each of
// which answered it correctly — is taken out of rotation.
func TestClusterFrontendRelaysWorker400(t *testing.T) {
	w1 := newWorkerServer(t)
	w2 := newWorkerServer(t)
	runner, err := NewRunner(Config{
		Local: &serve.FlowRunner{},
		Backends: []BackendSpec{
			{Name: "w1", URL: w1.URL},
			{Name: "w2", URL: w2.URL},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fe := httptest.NewServer(serve.New(serve.Config{Runner: runner}).Handler())
	t.Cleanup(fe.Close)

	req := &serve.FlowRequest{Bench: "cns01", Scheme: "smart-ndr",
		Edits: []smartndr.Edit{{Op: core.OpNodeRule, Node: 9999999}}}
	resp, body := clusterPost(t, fe, "/v1/flow", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("frontend status = %d, want the workers' 400: %s", resp.StatusCode, body)
	}
	for _, st := range runner.ShardStats() {
		if !st.Healthy {
			t.Errorf("shard %s marked down by a request error", st.Shard)
		}
	}
}
