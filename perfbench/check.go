package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"

	"smartndr/internal/serve"
	"smartndr/internal/tech"
)

// defaultSeed is the seed the committed QoR digests were recorded at.
const defaultSeed = 1

// qorGolden holds, per workload and stream, the QoR digest chain at every
// power-of-two operation count reached when it was recorded (-write-qor).
//
//go:embed qor_seed1.json
var qorGolden []byte

type goldenFile map[string]map[string]map[string]string // workload → stream → count → digest

// qorFields are the parts of a /v1/flow body that carry quality of
// result. The content-address key is left out on purpose, so that a
// deliberate key-version change does not trip the digest.
var qorFields = []string{"buffers", "clusters", "metrics", "stats"}

// qorHash hashes a flow body's QoR fields.
func qorHash(body []byte) ([32]byte, error) {
	var f map[string]json.RawMessage
	if err := json.Unmarshal(body, &f); err != nil {
		return [32]byte{}, fmt.Errorf("decode flow body: %w", err)
	}
	h := sha256.New()
	for _, k := range qorFields {
		v, ok := f[k]
		if !ok && k != "stats" {
			return [32]byte{}, fmt.Errorf("flow body has no %q", k)
		}
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write(v)
		h.Write([]byte{0})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}

// chain folds per-operation QoR hashes, in request order, into one
// running digest and remembers it at every power-of-two count.
type chain struct {
	d     [32]byte
	n     int
	marks map[string]string
}

func newChain() *chain { return &chain{marks: map[string]string{}} }

func (c *chain) add(h [32]byte) {
	c.d = sha256.Sum256(append(c.d[:], h[:]...))
	c.n++
	if c.n&(c.n-1) == 0 {
		c.marks[strconv.Itoa(c.n)] = hex.EncodeToString(c.d[:])
	}
}

// verifyChains compares a run's chains with the recorded ones and
// returns one message per mismatching checkpoint. A workload without a
// recording is an error: the default seed must always be checked.
func verifyChains(golden []byte, workload string, chains map[string]*chain) ([]string, error) {
	var g goldenFile
	if err := json.Unmarshal(golden, &g); err != nil {
		return nil, fmt.Errorf("qor digests: %w", err)
	}
	rec, ok := g[workload]
	if !ok {
		return nil, fmt.Errorf("qor digests: nothing recorded for %s", workload)
	}
	var bad []string
	for _, stream := range sortedKeys(chains) {
		want := rec[stream]
		if len(want) == 0 {
			return nil, fmt.Errorf("qor digests: nothing recorded for %s/%s", workload, stream)
		}
		for _, n := range sortedKeys(chains[stream].marks) {
			if w, ok := want[n]; ok && w != chains[stream].marks[n] {
				bad = append(bad, fmt.Sprintf("%s/%s: QoR digest after %s ops differs from the recording", workload, stream, n))
			}
		}
	}
	return bad, nil
}

// recordChains writes the run's chains into the digest file at path,
// replacing what it held for the workload.
func recordChains(path, workload string, chains map[string]*chain) error {
	g := goldenFile{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	g[workload] = map[string]map[string]string{}
	for s, c := range chains {
		g[workload][s] = c.marks
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		a, ea := strconv.Atoi(ks[i])
		b, eb := strconv.Atoi(ks[j])
		if ea == nil && eb == nil {
			return a < b
		}
		return ks[i] < ks[j]
	})
	return ks
}

// maxSkew is the skew bound a smart-ndr result must meet; every request
// runs on the default tech45. The slew bound is counted by the engine
// itself (metrics.slew_violations).
var maxSkew = tech.Tech45().MaxSkew

// flowCheck is what checkFlow learned about one valid flow body.
type flowCheck struct {
	qor      [32]byte
	skewViol bool // skew above the tech bound
	slewViol bool // any transition above the tech bound
}

// checkFlow validates one /v1/flow reply: 200, decodes, describes the
// requested design with finite metrics, and came from the expected cache
// path ("" accepts any).
func checkFlow(rep reply, bench string, sinks int, cache string) (flowCheck, error) {
	if rep.status != http.StatusOK {
		return flowCheck{}, fmt.Errorf("status %d: %s", rep.status, truncate(rep.body))
	}
	if cache != "" && rep.cache != cache {
		return flowCheck{}, fmt.Errorf("X-Cache %q, want %q", rep.cache, cache)
	}
	return checkFlowBody(rep.body, bench, sinks)
}

func checkFlowBody(body []byte, bench string, sinks int) (flowCheck, error) {
	var fr serve.FlowResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return flowCheck{}, fmt.Errorf("decode flow body: %w", err)
	}
	m := fr.Metrics
	switch {
	case fr.Bench != bench || fr.Sinks != sinks:
		return flowCheck{}, fmt.Errorf("body describes %s/%d sinks, want %s/%d", fr.Bench, fr.Sinks, bench, sinks)
	case fr.Scheme != smartScheme || fr.Stats == nil:
		return flowCheck{}, fmt.Errorf("scheme %q (stats %v), want %s with stats", fr.Scheme, fr.Stats != nil, smartScheme)
	case !(m.SwitchedCap > 0) || !(m.Wirelength > 0) || !(m.Skew >= 0) || math.IsInf(m.Skew, 0) || !(m.WorstSlew > 0) || fr.Buffers <= 0:
		return flowCheck{}, fmt.Errorf("implausible metrics: cap %g wl %g skew %g slew %g buffers %d",
			m.SwitchedCap, m.Wirelength, m.Skew, m.WorstSlew, fr.Buffers)
	}
	q, err := qorHash(body)
	if err != nil {
		return flowCheck{}, err
	}
	return flowCheck{qor: q, skewViol: m.Skew > maxSkew, slewViol: m.SlewViol > 0}, nil
}

// checkSame flags a body that is not byte-identical to the expected one.
func checkSame(got, want []byte, what string) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: body differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
