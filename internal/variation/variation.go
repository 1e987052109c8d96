// Package variation quantifies a clock network's robustness to process
// variation with Monte Carlo analysis — the second half of the NDR story:
// wide wires do not only sharpen transitions, they also *attenuate* the
// impact of lithographic critical-dimension (CD) variation, because an
// absolute width error δ is a smaller relative error on a 2W wire than on
// a 1W wire. Smart NDR assignment must preserve (most of) that robustness
// while shedding the capacitance, and this package produces the skew
// distributions that show whether it does.
//
// The variation model is the standard grid-correlated one: each sample
// draws a coarse spatial field (bilinear-interpolated Gaussian grid) plus
// white per-element noise; wire width errors perturb resistance as
// w/(w+δ) and area capacitance as +ca·δ, and buffer delays scale by a
// correlated relative factor.
package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// Params configure the Monte Carlo run.
type Params struct {
	// WidthSigma is the 1σ absolute wire CD variation, µm (e.g. 0.004 for
	// 4 nm at a 45 nm-class node).
	WidthSigma float64
	// BufSigma is the 1σ relative buffer delay variation.
	BufSigma float64
	// SpatialFrac is the fraction of variance carried by the spatially
	// correlated field (the rest is white), in [0, 1].
	SpatialFrac float64
	// Samples is the Monte Carlo sample count.
	Samples int
	// Seed makes the run deterministic.
	Seed int64
	// Workers bounds trial-level parallelism: 0 (or negative) uses
	// runtime.GOMAXPROCS(0); 1 forces the serial path. The determinism
	// contract: trial i draws from an independent RNG substream derived
	// from (Seed, i) alone, so results are bit-identical for every
	// Workers value — Workers is purely a throughput knob.
	Workers int
}

// gridCells is the resolution of the correlated field, cells per side.
const gridCells = 8

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.WidthSigma < 0 || p.BufSigma < 0:
		return errors.New("variation: negative sigma")
	case p.SpatialFrac < 0 || p.SpatialFrac > 1:
		return fmt.Errorf("variation: spatial fraction %g out of [0,1]", p.SpatialFrac)
	case p.Samples <= 0:
		return fmt.Errorf("variation: non-positive sample count %d", p.Samples)
	}
	return nil
}

// Defaults returns a 45 nm-class variation corner: 4 nm CD sigma, 3%
// buffer sigma, 60% spatially correlated, 500 samples.
func Defaults(seed int64) Params {
	return Params{
		WidthSigma:  0.004,
		BufSigma:    0.03,
		SpatialFrac: 0.6,
		Samples:     500,
		Seed:        seed,
	}
}

// Sample is one Monte Carlo outcome.
type Sample struct {
	Skew      float64 // s
	WorstSlew float64 // s
	Insertion float64 // s, max sink arrival
}

// Stats summarizes a Monte Carlo run.
type Stats struct {
	Samples   []Sample
	MeanSkew  float64
	StdSkew   float64
	P95Skew   float64
	MaxSkew   float64
	WorstSlew float64 // max over samples
}

// field is a bilinear-interpolated Gaussian grid over the die.
type field struct {
	vals       []float64
	cells      int
	bb         geom.BBox
	invW, invH float64
}

// emptyField allocates the grid without drawing values; fill redraws it
// in place so per-trial scratch reuse skips the allocation.
func emptyField(cells int, bb geom.BBox) *field {
	f := &field{vals: make([]float64, (cells+1)*(cells+1)), cells: cells, bb: bb}
	w := bb.Width()
	h := bb.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	f.invW, f.invH = 1/w, 1/h
	return f
}

// fill redraws every grid value from rng.
func (f *field) fill(rng *rand.Rand) {
	for i := range f.vals {
		f.vals[i] = rng.NormFloat64()
	}
}

// at returns the field value at a die location.
func (f *field) at(p geom.Point) float64 {
	fx := geom.Clamp((p.X-f.bb.MinX)*f.invW, 0, 1) * float64(f.cells)
	fy := geom.Clamp((p.Y-f.bb.MinY)*f.invH, 0, 1) * float64(f.cells)
	x0 := int(fx)
	y0 := int(fy)
	if x0 >= f.cells {
		x0 = f.cells - 1
	}
	if y0 >= f.cells {
		y0 = f.cells - 1
	}
	dx := fx - float64(x0)
	dy := fy - float64(y0)
	n := f.cells + 1
	v00 := f.vals[y0*n+x0]
	v01 := f.vals[y0*n+x0+1]
	v10 := f.vals[(y0+1)*n+x0]
	v11 := f.vals[(y0+1)*n+x0+1]
	return v00*(1-dx)*(1-dy) + v01*dx*(1-dy) + v10*(1-dx)*dy + v11*dx*dy
}

// trialScratch is the per-worker reusable state: Gaussian fields, the
// override buffers, the trial RNG, and a timing engine with preallocated
// storage. One worker runs one trial at a time, so nothing here needs
// locking.
type trialScratch struct {
	fw, fb *field // width and buffer spatial fields
	ov     sta.Overrides
	src    par.Source
	rng    *rand.Rand
	an     *sta.Incremental
}

// MonteCarlo runs the analysis at root input transition inSlew. The tree
// is not modified.
//
// Determinism contract: trial i draws every random number from a
// dedicated substream seeded by par.SubstreamSeed(p.Seed, i), so the
// sample sequence depends only on the Params — not on Workers, core
// count, or scheduling. Two runs with equal Params produce identical
// Stats.
//
// Instrumentation: each trial records a span (so timing outliers are
// visible in a trace), and the run gauges acceptance against the
// technology skew bound. A nil tracer adds no overhead. Trial spans are
// attached to the run span explicitly — never to the tracer's ambient
// span stack — so the span tree stays well-formed when trials run on
// many goroutines.
func MonteCarlo(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, p Params, tr *obs.Tracer) (*Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	workers := par.Workers(p.Workers)
	sp := tr.Start("variation.montecarlo",
		obs.I("samples", p.Samples), obs.I("workers", workers))
	defer sp.End()
	bb := geom.NewEmptyBBox()
	for i := range t.Nodes {
		bb.Extend(t.Nodes[i].Loc)
	}
	n := len(t.Nodes)
	spat := math.Sqrt(p.SpatialFrac)
	white := math.Sqrt(1 - p.SpatialFrac)
	if workers > p.Samples {
		workers = p.Samples
	}
	scratch := make([]*trialScratch, workers)
	samples := make([]Sample, p.Samples)
	//lint:allow ctxflow deterministic Monte-Carlo batch; cancelling mid-run would violate the seeded-substream reproducibility contract
	err := par.ForEachWorker(context.Background(), workers, p.Samples, func(w, s int) error {
		sc := scratch[w]
		if sc == nil {
			sc = &trialScratch{
				fw: emptyField(gridCells, bb),
				fb: emptyField(gridCells, bb),
				ov: sta.Overrides{
					EdgeR:    make([]float64, n),
					EdgeC:    make([]float64, n),
					BufScale: make([]float64, n),
				},
				an: sta.NewIncremental(te, lib),
			}
			sc.rng = rand.New(&sc.src)
			scratch[w] = sc
		}
		tsp := sp.Child("trial", obs.I("trial", s))
		defer tsp.End() // must fire on error paths too — see TestMonteCarloSpanLeak
		sc.src.Seed(par.SubstreamSeed(p.Seed, s))
		rng := sc.rng
		sc.fw.fill(rng)
		sc.fb.fill(rng)
		for i := range t.Nodes {
			nd := &t.Nodes[i]
			if nd.Parent == ctree.NoNode {
				sc.ov.EdgeR[i], sc.ov.EdgeC[i] = 0, 0
			} else {
				mid := geom.Midpoint(nd.Loc, t.Nodes[nd.Parent].Loc)
				delta := p.WidthSigma * (spat*sc.fw.at(mid) + white*rng.NormFloat64())
				rule := te.Rule(nd.Rule)
				w := te.Layer.MinWidth * rule.WMult
				if delta < -0.8*w {
					delta = -0.8 * w // physical floor: wire cannot vanish
				}
				sc.ov.EdgeR[i] = te.WireR(nd.EdgeLen, nd.Rule) * w / (w + delta)
				sc.ov.EdgeC[i] = te.WireC(nd.EdgeLen, nd.Rule) + te.Layer.CArea*delta*nd.EdgeLen
			}
			sc.ov.BufScale[i] = 1
			if nd.BufIdx != ctree.NoBuf {
				g := spat*sc.fb.at(nd.Loc) + white*rng.NormFloat64()
				sc.ov.BufScale[i] = math.Max(0.5, 1+p.BufSigma*g)
			}
		}
		res, err := sc.an.Full(t, inSlew, &sc.ov, nil)
		if err != nil {
			return err
		}
		worst, _ := res.WorstSlew()
		skew := res.Skew()
		samples[s] = Sample{
			Skew:      skew,
			WorstSlew: worst,
			Insertion: res.MaxSinkArrival(),
		}
		tsp.Set(obs.F("skew_ps", skew*1e12))
		tr.Add("mc.trials", 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := &Stats{Samples: samples}
	st.finalize()
	tr.Gauge("mc.mean_skew_ps", st.MeanSkew*1e12)
	tr.Gauge("mc.p95_skew_ps", st.P95Skew*1e12)
	tr.Gauge("mc.yield_at_bound", st.YieldAt(te.MaxSkew))
	sp.Set(obs.F("p95_skew_ps", st.P95Skew*1e12))
	return st, nil
}

func (st *Stats) finalize() {
	if len(st.Samples) == 0 {
		return
	}
	skews := make([]float64, len(st.Samples))
	var sum, sumSq float64
	for i, s := range st.Samples {
		skews[i] = s.Skew
		sum += s.Skew
		sumSq += s.Skew * s.Skew
		if s.Skew > st.MaxSkew {
			st.MaxSkew = s.Skew
		}
		if s.WorstSlew > st.WorstSlew {
			st.WorstSlew = s.WorstSlew
		}
	}
	n := float64(len(st.Samples))
	st.MeanSkew = sum / n
	if v := sumSq/n - st.MeanSkew*st.MeanSkew; v > 0 {
		st.StdSkew = math.Sqrt(v)
	}
	sort.Float64s(skews)
	st.P95Skew = Quantile(skews, 0.95)
}

// YieldAt returns the fraction of samples whose skew is within the bound.
func (st *Stats) YieldAt(bound float64) float64 {
	if len(st.Samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range st.Samples {
		if s.Skew <= bound {
			ok++
		}
	}
	return float64(ok) / float64(len(st.Samples))
}
