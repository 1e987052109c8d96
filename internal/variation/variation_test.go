package variation

import (
	"math/rand"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/core"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

func builtTree(t testing.TB, n int, seed int64, spread float64, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread},
			Cap: (1 + rng.Float64()*2) * 1e-15,
		}
	}
	res, err := cts.Build(sinks, geom.Point{X: spread / 2, Y: spread / 2}, te, lib, cts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Tree
}

func TestMonteCarloDeterministic(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := builtTree(t, 60, 3, 1000, te, lib)
	p := Defaults(7)
	p.Samples = 20
	a, err := MonteCarlo(tr, te, lib, sta.DefaultInSlew, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(tr, te, lib, sta.DefaultInSlew, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs under identical seeds", i)
		}
	}
}

func TestMonteCarloZeroSigmaMatchesNominal(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := builtTree(t, 60, 5, 1000, te, lib)
	p := Params{Samples: 3, Seed: 1}
	st, err := MonteCarlo(tr, te, lib, sta.DefaultInSlew, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.StdSkew > 1e-18 {
		t.Errorf("zero sigmas must give zero spread, got std %g", st.StdSkew)
	}
}

func TestVariationIncreasesSkewSpread(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tr := builtTree(t, 120, 9, 2000, te, lib)
	p := Defaults(11)
	p.Samples = 100
	st, err := MonteCarlo(tr, te, lib, sta.DefaultInSlew, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.StdSkew <= 0 {
		t.Error("variation must spread the skew")
	}
	if st.P95Skew < st.MeanSkew {
		t.Error("P95 below mean")
	}
	if st.MaxSkew < st.P95Skew {
		t.Error("max below P95")
	}
	y := st.YieldAt(st.P95Skew)
	if y < 0.9 || y > 1 {
		t.Errorf("yield at P95 = %g", y)
	}
}

func TestNDRMoreRobustThanDefault(t *testing.T) {
	// The core physics claim: the same tree with all-default rules has a
	// wider skew distribution under CD variation than with blanket NDR.
	te := tech.Tech45()
	lib := cell.Default45()
	tr := builtTree(t, 150, 13, 2500, te, lib)
	p := Defaults(17)
	p.Samples = 120
	p.BufSigma = 0 // isolate the wire effect

	blanket := tr.Clone()
	core.AssignAll(blanket, te.BlanketRule)
	sb, err := MonteCarlo(blanket, te, lib, sta.DefaultInSlew, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	def := tr.Clone()
	core.AssignAll(def, te.DefaultRule)
	sd, err := MonteCarlo(def, te, lib, sta.DefaultInSlew, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sd.StdSkew <= sb.StdSkew {
		t.Errorf("default rule must be less robust: σ(default)=%.3fps σ(NDR)=%.3fps",
			sd.StdSkew*1e12, sb.StdSkew*1e12)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{WidthSigma: -1, Samples: 10},
		{BufSigma: -1, Samples: 10},
		{SpatialFrac: 2, Samples: 10},
		{Samples: 0},
		{Samples: 10, GridCells: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if err := Defaults(1).Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestFieldInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bb := geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	f := emptyField(4, bb)
	f.fill(rng)
	// Continuity: nearby points give nearby values.
	a := f.at(geom.Point{X: 50, Y: 50})
	b := f.at(geom.Point{X: 50.1, Y: 50.1})
	if diff := a - b; diff > 0.5 || diff < -0.5 {
		t.Errorf("field jumps: %g vs %g", a, b)
	}
	// Out-of-range points clamp, not panic.
	_ = f.at(geom.Point{X: -50, Y: 500})
}

func TestSpatialCorrelationMatters(t *testing.T) {
	// Die-scale correlated gradients shift whole regions coherently, so a
	// balanced tree whose branches serve different regions accumulates
	// *systematic* skew — worse than white noise, which averages out over
	// the many independent segments of each path. (This asymmetry is why
	// timing signoff applies distance-based OCV derates.)
	te := tech.Tech45()
	lib := cell.Default45()
	tr := builtTree(t, 100, 19, 1500, te, lib)
	base := Defaults(23)
	base.Samples = 100
	base.BufSigma = 0.03

	spatial := base
	spatial.SpatialFrac = 1
	white := base
	white.SpatialFrac = 0
	ss, err := MonteCarlo(tr, te, lib, sta.DefaultInSlew, spatial, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := MonteCarlo(tr, te, lib, sta.DefaultInSlew, white, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.StdSkew <= 0 || sw.StdSkew <= 0 {
		t.Fatal("both corners must show spread")
	}
	if ss.StdSkew <= sw.StdSkew*0.8 {
		t.Errorf("correlated gradients should not be milder than white noise: σ(spatial)=%.3fps σ(white)=%.3fps",
			ss.StdSkew*1e12, sw.StdSkew*1e12)
	}
}
