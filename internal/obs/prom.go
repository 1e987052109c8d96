package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSnapshot is the input to WritePromText: a point-in-time copy of
// everything one exposition renders. Build it from a Registry
// (Registry.PromSnapshot) and optionally a SpanObserver, then add any
// extra process-level series (e.g. runtime/metrics gauges) before
// rendering.
type PromSnapshot struct {
	Counters   map[string]float64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
	// SpanHistograms are keyed by span path and rendered as one
	// <ns>_span_duration_seconds family with a path label, since paths
	// ('/'-joined) live outside the flat metric namespace.
	SpanHistograms map[string]HistogramSnapshot
	// LabeledCounters / LabeledGauges are multi-series families keyed by
	// registry-convention names (pkg.snake_case); each family renders
	// one line per series with its label set. They exist for
	// small-cardinality dimensional series (cluster shards) that the
	// flat Registry namespace cannot express.
	LabeledCounters map[string][]LabeledSeries
	LabeledGauges   map[string][]LabeledSeries
}

// LabeledSeries is one series of a labeled family: pre-rendered label
// pairs (build them with PromLabel, comma-joined) plus the value.
type LabeledSeries struct {
	Labels string
	Value  float64
}

// PromLabel renders one label pair per the exposition grammar.
func PromLabel(key, value string) string {
	return key + `="` + promLabelEscape(value) + `"`
}

// PromSnapshot copies the registry's counters, gauges, and histograms
// into exposition form. Safe on nil (empty snapshot).
func (r *Registry) PromSnapshot() PromSnapshot {
	return PromSnapshot{
		Counters:   r.Counters(),
		Gauges:     r.Gauges(),
		Histograms: r.Histograms(),
	}
}

// WritePromText renders the snapshot in Prometheus text exposition
// format (version 0.0.4). Every family and series is emitted in sorted
// order and every number is formatted deterministically, so two
// snapshots holding the same data render byte-identically — telemetry
// obeys the same determinism contract as the engine.
//
// Name mapping: a registry name like "serve.cache_hits" becomes
// <ns>_serve_cache_hits (non-alphanumeric bytes -> '_'), counters gain
// a _total suffix, histograms render as _bucket/_sum/_count with
// cumulative le buckets, and span-path histograms become one
// <ns>_span_duration_seconds family labeled by path.
func WritePromText(w io.Writer, ns string, snap PromSnapshot) error {
	var b strings.Builder

	for _, name := range sortedFloatKeys(snap.Counters) {
		fam := promName(ns, name)
		if !strings.HasSuffix(fam, "_total") {
			fam += "_total"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n",
			fam, name, fam, fam, promFloat(snap.Counters[name]))
	}
	for _, name := range sortedLabeledKeys(snap.LabeledCounters) {
		fam := promName(ns, name)
		if !strings.HasSuffix(fam, "_total") {
			fam += "_total"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", fam, name, fam)
		for _, series := range sortedSeries(snap.LabeledCounters[name]) {
			fmt.Fprintf(&b, "%s{%s} %s\n", fam, series.Labels, promFloat(series.Value))
		}
	}
	for _, name := range sortedFloatKeys(snap.Gauges) {
		fam := promName(ns, name)
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			fam, name, fam, fam, promFloat(snap.Gauges[name]))
	}
	for _, name := range sortedLabeledKeys(snap.LabeledGauges) {
		fam := promName(ns, name)
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", fam, name, fam)
		for _, series := range sortedSeries(snap.LabeledGauges[name]) {
			fmt.Fprintf(&b, "%s{%s} %s\n", fam, series.Labels, promFloat(series.Value))
		}
	}
	for _, name := range sortedHistKeys(snap.Histograms) {
		writePromHistogram(&b, promName(ns, name), name, "", snap.Histograms[name])
	}
	if len(snap.SpanHistograms) > 0 {
		fam := promName(ns, "span_duration_seconds")
		fmt.Fprintf(&b, "# HELP %s span duration by slash-joined path\n# TYPE %s histogram\n", fam, fam)
		for _, path := range sortedHistKeys(snap.SpanHistograms) {
			writePromHistogramSeries(&b, fam, `path="`+promLabelEscape(path)+`"`, snap.SpanHistograms[path])
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram emits one single-series histogram family with its
// HELP/TYPE header.
func writePromHistogram(b *strings.Builder, fam, help, labels string, s HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", fam, help, fam)
	writePromHistogramSeries(b, fam, labels, s)
}

// writePromHistogramSeries emits the _bucket/_sum/_count series of one
// histogram, with optional extra labels (no braces, no trailing comma).
func writePromHistogramSeries(b *strings.Builder, fam, labels string, s HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, bound := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", fam, labels, sep, promFloat(bound), cum)
	}
	if n := len(s.Counts); n > 0 {
		cum += s.Counts[n-1]
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", fam, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", fam, promFloat(s.Sum), fam, s.Count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n%s_count{%s} %d\n", fam, labels, promFloat(s.Sum), fam, labels, s.Count)
	}
}

// promName maps a registry name into the exposition namespace:
// "<ns>_" prefix, every byte outside [a-zA-Z0-9_] replaced by '_'.
func promName(ns, name string) string {
	var b strings.Builder
	b.Grow(len(ns) + 1 + len(name))
	b.WriteString(ns)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a value deterministically in the shortest form
// that round-trips ('g', like Prometheus itself uses).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabelEscape escapes a label value per the exposition grammar.
func promLabelEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func sortedFloatKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedHistKeys(m map[string]HistogramSnapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedLabeledKeys(m map[string][]LabeledSeries) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedSeries orders a family's series by label set so rendering
// stays deterministic regardless of how the caller assembled them.
func sortedSeries(in []LabeledSeries) []LabeledSeries {
	out := make([]LabeledSeries, len(in))
	copy(out, in)
	sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
	return out
}
