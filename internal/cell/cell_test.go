package cell

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func simpleTable() Table {
	return Table{
		SlewAxis: []float64{1, 2, 3},
		LoadAxis: []float64{10, 20},
		Values: [][]float64{
			{1, 2},
			{2, 3},
			{3, 4},
		},
	}
}

func TestTableValidate(t *testing.T) {
	tab := simpleTable()
	if err := tab.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	bad := simpleTable()
	bad.SlewAxis = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Error("one-point axis should fail")
	}
	bad = simpleTable()
	bad.SlewAxis = []float64{1, 1, 3}
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing axis should fail")
	}
	bad = simpleTable()
	bad.Values = bad.Values[:2]
	if err := bad.Validate(); err == nil {
		t.Error("row count mismatch should fail")
	}
	bad = simpleTable()
	bad.Values[1] = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Error("col count mismatch should fail")
	}
	bad = simpleTable()
	bad.LoadAxis = []float64{20, 10}
	if err := bad.Validate(); err == nil {
		t.Error("decreasing load axis should fail")
	}
}

func TestLookupAtGridPoints(t *testing.T) {
	tab := simpleTable()
	for i, s := range tab.SlewAxis {
		for j, l := range tab.LoadAxis {
			if got := tab.Lookup(s, l); math.Abs(got-tab.Values[i][j]) > 1e-12 {
				t.Errorf("Lookup(%g,%g) = %g, want %g", s, l, got, tab.Values[i][j])
			}
		}
	}
}

func TestLookupInterpolation(t *testing.T) {
	tab := simpleTable()
	// Midpoint in both axes of the lower-left cell: mean of 4 corners.
	got := tab.Lookup(1.5, 15)
	want := (1.0 + 2 + 2 + 3) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("bilinear midpoint = %g, want %g", got, want)
	}
}

func TestLookupExtrapolation(t *testing.T) {
	tab := simpleTable()
	// Table is linear (value = slew + load/10 − 1 + ...) in each axis; the
	// extrapolated value continues the edge slope.
	lo := tab.Lookup(0, 10) // one below the slew axis start
	if math.Abs(lo-0) > 1e-12 {
		t.Errorf("low extrapolation = %g, want 0", lo)
	}
	hi := tab.Lookup(4, 20)
	if math.Abs(hi-5) > 1e-12 {
		t.Errorf("high extrapolation = %g, want 5", hi)
	}
}

func TestLookupMatchesGeneratingPhysics(t *testing.T) {
	// The generated tables sample an analytic form; lookups on the grid and
	// within cells must track it closely.
	p := DefaultGenParams()
	lib, err := Generate("t", p)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := lib.ByName("CLKBUF_X8")
	if !ok {
		t.Fatal("X8 missing")
	}
	rd := p.R1 / 8
	f := func(sRaw, clRaw float64) bool {
		s := 5e-12 + math.Abs(math.Mod(sRaw, 395e-12))
		cl := b.InputCap * (0.5 + math.Abs(math.Mod(clRaw, 39.5)))
		want := p.T0 + math.Ln2*rd*cl + p.SlewSens*s
		got := b.DelayAt(s, cl)
		// Bilinear interpolation of a bilinear-in-axes function is exact up
		// to float noise; the analytic form is linear in s and cl, so the
		// error must be tiny.
		return math.Abs(got-want) <= 1e-15+1e-9*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayMonotoneInLoad(t *testing.T) {
	lib := Default45()
	for i := range lib.Buffers {
		b := &lib.Buffers[i]
		prev := -1.0
		for m := 0.5; m < 60; m *= 1.4 {
			d := b.DelayAt(50e-12, b.InputCap*m)
			if d <= prev {
				t.Errorf("%s: delay not increasing in load", b.Name)
				break
			}
			prev = d
		}
	}
}

func TestStrongerCellFasterAtSameLoad(t *testing.T) {
	lib := Default45()
	load := 60e-15
	slew := 50e-12
	for i := 1; i < len(lib.Buffers); i++ {
		weak := lib.Buffers[i-1].DelayAt(slew, load)
		strong := lib.Buffers[i].DelayAt(slew, load)
		if strong >= weak {
			t.Errorf("%s not faster than %s at %g F load",
				lib.Buffers[i].Name, lib.Buffers[i-1].Name, load)
		}
	}
}

func TestLibraryValidate(t *testing.T) {
	lib := Default45()
	if err := lib.Validate(); err != nil {
		t.Fatalf("built-in library invalid: %v", err)
	}
	bad := Default45()
	bad.Buffers[1].Name = bad.Buffers[0].Name
	if err := bad.Validate(); err == nil {
		t.Error("duplicate cell names should fail")
	}
	bad = Default45()
	bad.Buffers[0].Drive = 100
	if err := bad.Validate(); err == nil {
		t.Error("drive ordering violation should fail")
	}
	bad = Default45()
	bad.Buffers[0].InputCap = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero input cap should fail")
	}
	empty := &Library{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty library should fail")
	}
}

func TestByName(t *testing.T) {
	lib := Default45()
	if _, ok := lib.ByName("CLKBUF_X8"); !ok {
		t.Error("X8 should exist")
	}
	if _, ok := lib.ByName("NOPE"); ok {
		t.Error("unknown cell should not resolve")
	}
}

func TestStrongestWeakest(t *testing.T) {
	lib := Default45()
	if lib.Weakest().Drive >= lib.Strongest().Drive {
		t.Error("weakest should have lower drive than strongest")
	}
}

func TestSmallestMeeting(t *testing.T) {
	lib := Default45()
	// Light load: the weakest cell should qualify.
	b, ok := lib.SmallestMeeting(20e-12, 2e-15, 100e-12)
	if !ok {
		t.Fatal("no cell meets a trivial constraint")
	}
	if b.Name != lib.Weakest().Name {
		t.Errorf("picked %s for a trivial load, want weakest", b.Name)
	}
	// Heavy load: a stronger cell is needed.
	heavy, ok := lib.SmallestMeeting(50e-12, 150e-15, 100e-12)
	if !ok {
		t.Fatalf("no cell meets 150 fF / 100 ps — library too weak for its own MaxCap")
	}
	if heavy.Drive <= lib.Weakest().Drive {
		t.Error("heavy load should need a stronger cell")
	}
	// Impossible constraint: returns strongest with ok=false.
	s, ok := lib.SmallestMeeting(400e-12, 5e-12, 1e-15)
	if ok || s.Name != lib.Strongest().Name {
		t.Errorf("impossible constraint: got %s, ok=%v", s.Name, ok)
	}
}

func TestGenerateErrors(t *testing.T) {
	p := DefaultGenParams()
	p.Drives = nil
	if _, err := Generate("x", p); err == nil {
		t.Error("empty drive list should fail")
	}
	p = DefaultGenParams()
	p.Drives = []float64{-1}
	if _, err := Generate("x", p); err == nil {
		t.Error("negative drive should fail")
	} else if !strings.Contains(err.Error(), "drive") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestDefault65Differs(t *testing.T) {
	a, b := Default45(), Default65()
	if a.Buffers[0].InputCap >= b.Buffers[0].InputCap {
		t.Error("65 nm cells should have more input cap")
	}
	if a.Buffers[0].DelayAt(50e-12, 20e-15) >= b.Buffers[0].DelayAt(50e-12, 20e-15) {
		t.Error("65 nm cells should be slower")
	}
}

func TestOutSlewIncreasesWithLoad(t *testing.T) {
	lib := Default45()
	b := lib.Buffers[2]
	if b.OutSlewAt(50e-12, 10e-15) >= b.OutSlewAt(50e-12, 100e-15) {
		t.Error("output slew must grow with load")
	}
}

// TestTableValidateRejectsNonFinite: an axis with a NaN or an infinite
// point is rejected. A NaN fails every ordered comparison, so a check
// written as a[i] <= a[i-1] let [1, NaN, 3] through.
func TestTableValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, axis := range [][]float64{
		{1, nan, 3}, {nan, 2, 3}, {1, 2, nan}, {1, 2, inf}, {-inf, 2, 3},
	} {
		bad := simpleTable()
		bad.SlewAxis = axis
		if err := bad.Validate(); err == nil {
			t.Errorf("slew axis %v accepted", axis)
		}
	}
	for _, axis := range [][]float64{{10, nan}, {nan, 20}, {10, inf}, {-inf, 20}} {
		bad := simpleTable()
		bad.LoadAxis = axis
		if err := bad.Validate(); err == nil {
			t.Errorf("load axis %v accepted", axis)
		}
	}
}

// bracketBisect is bracket as it was written with sort.SearchFloat64s: the
// reference the forward scan must reproduce.
func bracketBisect(axis []float64, x float64) (lo, hi int, frac float64) {
	n := len(axis)
	k := sort.SearchFloat64s(axis, x)
	switch {
	case k <= 0:
		lo, hi = 0, 1
	case k >= n:
		lo, hi = n-2, n-1
	default:
		lo, hi = k-1, k
	}
	frac = (x - axis[lo]) / (axis[hi] - axis[lo])
	return lo, hi, frac
}

// TestBracketMatchesBisection: on both built-in libraries' axes, the
// forward scan returns the bisection's interval and the bits of its
// fraction at every axis point, at random points inside, below and above
// the range, and at ±0, ±Inf and NaN.
func TestBracketMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var axes [][]float64
	for _, lib := range []*Library{Default45(), Default65()} {
		for i := range lib.Buffers {
			b := &lib.Buffers[i]
			axes = append(axes, b.Delay.SlewAxis, b.Delay.LoadAxis, b.OutSlew.SlewAxis, b.OutSlew.LoadAxis)
		}
	}
	for _, axis := range axes {
		first, last := axis[0], axis[len(axis)-1]
		xs := append([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}, axis...)
		for range 200 {
			span := last - first
			xs = append(xs,
				first+rng.Float64()*span,    // inside
				first-rng.Float64()*span,    // below
				last+rng.Float64()*span,     // above
				math.Nextafter(first, 0),    // just below the first point
				math.Nextafter(last, 1e300)) // just above the last
		}
		for _, x := range xs {
			lo, hi, frac := bracket(axis, x)
			wlo, whi, wfrac := bracketBisect(axis, x)
			if lo != wlo || hi != whi || math.Float64bits(frac) != math.Float64bits(wfrac) {
				t.Fatalf("axis %v at %g: (%d,%d,%v), bisection (%d,%d,%v)", axis, x, lo, hi, frac, wlo, whi, wfrac)
			}
		}
	}
}
