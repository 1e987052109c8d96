package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// shardStatsRunner makes a stub runner double as a serve.ShardStatser,
// standing in for the cluster runner without an import cycle.
type shardStatsRunner struct {
	*stubRunner
	stats []ShardStat
}

func (r *shardStatsRunner) ShardStats() []ShardStat { return r.stats }

func TestStatszAndMetricszExposeShards(t *testing.T) {
	runner := &shardStatsRunner{stubRunner: newStubRunner(), stats: []ShardStat{
		{Shard: "w0", Healthy: true, Requests: 12, Hedges: 3, HedgeWins: 2, RemoteHits: 5, RemoteMisses: 7, P95MS: 41.5},
		{Shard: "w1", Healthy: false, Requests: 4, Errors: 4},
	}}
	ts := httptest.NewServer(New(Config{Runner: runner}).Handler())
	defer ts.Close()

	// /v1/statsz carries the runner's shard view.
	stResp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stBody := readBody(t, stResp)
	var st struct {
		Shards []ShardStat `json:"shards"`
	}
	if err := json.Unmarshal(stBody, &st); err != nil {
		t.Fatalf("statsz not JSON: %v", err)
	}
	if len(st.Shards) != 2 || st.Shards[0].Shard != "w0" || st.Shards[1].Healthy {
		t.Errorf("statsz shards = %+v, want the runner's two shards verbatim", st.Shards)
	}
	if st.Shards[0].P95MS != 41.5 || st.Shards[0].HedgeWins != 2 {
		t.Errorf("statsz shard w0 = %+v", st.Shards[0])
	}

	// /metricsz renders the same view as labeled series.
	mResp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	expoBytes, err := io.ReadAll(mResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(expoBytes)
	for _, want := range []string{
		`smartndr_cluster_shard_requests_total{shard="w0"} 12`,
		`smartndr_cluster_shard_hedge_wins_total{shard="w0"} 2`,
		`smartndr_cluster_shard_healthy{shard="w0"} 1`,
		`smartndr_cluster_shard_healthy{shard="w1"} 0`,
		`smartndr_cluster_shard_p95_seconds{shard="w0"} 0.0415`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
	// Labeled families keep series sorted for deterministic scrapes.
	if i0, i1 := strings.Index(expo, `shard_requests_total{shard="w0"}`),
		strings.Index(expo, `shard_requests_total{shard="w1"}`); i0 == -1 || i1 == -1 || i0 > i1 {
		t.Errorf("labeled series out of order or missing: w0@%d w1@%d", i0, i1)
	}
}

func TestStatszOmitsShardsForPlainRunner(t *testing.T) {
	ts := httptest.NewServer(New(Config{Runner: newStubRunner()}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["shards"]; ok {
		t.Errorf("statsz exposes shards for a non-cluster runner: %s", raw["shards"])
	}
}
