package serve

import (
	"net/http"
	"runtime/metrics"

	"smartndr/internal/obs"
)

// runtimeSamples is the fixed set of runtime/metrics series /metricsz
// exposes, mapped into the registry naming convention. Counters are
// monotonic runtime totals; everything else is a gauge.
var runtimeSamples = []struct {
	sample  string
	name    string
	counter bool
}{
	{"/sched/goroutines:goroutines", "go.goroutines", false},
	{"/memory/classes/heap/objects:bytes", "go.heap_objects_bytes", false},
	{"/memory/classes/total:bytes", "go.memory_total_bytes", false},
	{"/gc/cycles/total:gc-cycles", "go.gc_cycles", true},
	{"/gc/heap/allocs:bytes", "go.heap_allocs_bytes", true},
}

// readRuntimeMetrics folds the fixed runtime/metrics set into the
// snapshot. Unknown or non-scalar samples (older runtimes) are skipped
// rather than rendered as garbage.
func readRuntimeMetrics(snap *obs.PromSnapshot) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.sample
	}
	metrics.Read(samples)
	if snap.Counters == nil {
		snap.Counters = map[string]float64{}
	}
	if snap.Gauges == nil {
		snap.Gauges = map[string]float64{}
	}
	for i, rs := range runtimeSamples {
		var v float64
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			v = float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			v = samples[i].Value.Float64()
		default:
			continue
		}
		if rs.counter {
			snap.Counters[rs.name] = v
		} else {
			snap.Gauges[rs.name] = v
		}
	}
}

// handleMetricsz serves GET /metricsz: every registry counter, gauge,
// and histogram, the per-span-path latency histograms (when a
// SpanObserver is wired in), and a fixed set of Go runtime stats, all
// in Prometheus text exposition format under the smartndr_ namespace.
// Rendering is deterministic given the recorded data; only the runtime
// gauges vary run to run.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, nil, errMethod(r, http.MethodGet))
		return
	}
	snap := s.reg.PromSnapshot()
	readRuntimeMetrics(&snap)
	snap.SpanHistograms = s.spanObs.Snapshot()
	s.addShardSeries(&snap)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePromText(w, "smartndr", snap)
}

// addShardSeries folds the cluster's per-backend view into the
// snapshot as series labeled by shard name, when the runner routes
// across a fleet. Families follow the registry naming convention even
// though they bypass the flat Registry (it cannot express labels).
func (s *Server) addShardSeries(snap *obs.PromSnapshot) {
	ss, ok := s.runner.(ShardStatser)
	if !ok {
		return
	}
	counters := map[string][]obs.LabeledSeries{}
	gauges := map[string][]obs.LabeledSeries{}
	for _, st := range ss.ShardStats() {
		l := obs.PromLabel("shard", st.Shard)
		healthy := 0.0
		if st.Healthy {
			healthy = 1.0
		}
		counters["cluster.shard_requests"] = append(counters["cluster.shard_requests"],
			obs.LabeledSeries{Labels: l, Value: float64(st.Requests)})
		counters["cluster.shard_errors"] = append(counters["cluster.shard_errors"],
			obs.LabeledSeries{Labels: l, Value: float64(st.Errors)})
		counters["cluster.shard_hedges"] = append(counters["cluster.shard_hedges"],
			obs.LabeledSeries{Labels: l, Value: float64(st.Hedges)})
		counters["cluster.shard_hedge_wins"] = append(counters["cluster.shard_hedge_wins"],
			obs.LabeledSeries{Labels: l, Value: float64(st.HedgeWins)})
		counters["cluster.shard_remote_hits"] = append(counters["cluster.shard_remote_hits"],
			obs.LabeledSeries{Labels: l, Value: float64(st.RemoteHits)})
		counters["cluster.shard_remote_misses"] = append(counters["cluster.shard_remote_misses"],
			obs.LabeledSeries{Labels: l, Value: float64(st.RemoteMisses)})
		gauges["cluster.shard_healthy"] = append(gauges["cluster.shard_healthy"],
			obs.LabeledSeries{Labels: l, Value: healthy})
		gauges["cluster.shard_inflight"] = append(gauges["cluster.shard_inflight"],
			obs.LabeledSeries{Labels: l, Value: float64(st.InFlight)})
		gauges["cluster.shard_p95_seconds"] = append(gauges["cluster.shard_p95_seconds"],
			obs.LabeledSeries{Labels: l, Value: st.P95MS / 1e3})
	}
	snap.LabeledCounters = counters
	snap.LabeledGauges = gauges
}
