package dme

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/topo"
)

var repParams = Params{
	Model:  Repeated,
	RPerUm: 1.5,
	CPerUm: 0.266e-15,
	Repeat: RepeatParams{
		Rd:      173,
		T0:      28e-12,
		Cin:     19.2e-15,
		Spacing: 153,
	},
}

func TestRepeatedDelayMonotone(t *testing.T) {
	f := func(raw1, raw2 float64) bool {
		a := math.Abs(math.Mod(raw1, 5000))
		b := a + math.Abs(math.Mod(raw2, 5000)) + 1e-6
		return repParams.repeatedDelay(b) >= repParams.repeatedDelay(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepeatedDelaySegmentCount(t *testing.T) {
	s := repParams.Repeat.Spacing
	cases := []struct {
		e    float64
		want float64
	}{
		{0, 1}, {1, 1}, {s, 1}, {s + 0.001, 2}, {2 * s, 2}, {10*s - 1, 10},
	}
	for _, c := range cases {
		if got := repParams.segments(c.e); got != c.want {
			t.Errorf("segments(%g) = %g, want %g", c.e, got, c.want)
		}
	}
}

func TestRepeatedZeroEdgeChargesJunction(t *testing.T) {
	// A zero-length edge still passes through its junction repeater.
	d0 := repParams.repeatedDelay(0)
	want := repParams.Repeat.T0 + repParams.Repeat.Rd*repParams.Repeat.Cin
	if math.Abs(d0-want) > 1e-15 {
		t.Errorf("D(0) = %g, want %g", d0, want)
	}
}

func TestRepeatedAmortizedRate(t *testing.T) {
	// Long lines approach a constant delay per micron; doubling the length
	// roughly doubles the delay.
	d5 := repParams.repeatedDelay(5000)
	d10 := repParams.repeatedDelay(10000)
	ratio := d10 / d5
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("long-line ratio %g, want ≈2", ratio)
	}
}

func TestExtendRepeatedDeliversLag(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jump := repParams.Repeat.T0 + repParams.Repeat.Rd*repParams.Repeat.Cin
	for trial := 0; trial < 500; trial++ {
		e := rng.Float64() * 3000
		lag := rng.Float64() * 200e-12
		e2 := repParams.extendRepeated(e, lag)
		if e2 < e {
			t.Fatalf("extension shrank the edge: %g → %g", e, e2)
		}
		got := repParams.repeatedDelay(e2) - repParams.repeatedDelay(e)
		// Exact in-branch; at a repeater-count jump the residual is at
		// most half a jump.
		if math.Abs(got-lag) > jump/2+1e-15 {
			t.Fatalf("extend(%g, %g ps): delivered %g ps (jump %g ps)",
				e, lag*1e12, got*1e12, jump*1e12)
		}
	}
}

func TestExtendRepeatedZeroLag(t *testing.T) {
	if got := repParams.extendRepeated(500, 0); got != 500 {
		t.Errorf("zero lag must not extend: %g", got)
	}
	if got := repParams.extendRepeated(500, -1e-12); got != 500 {
		t.Errorf("negative lag must not extend: %g", got)
	}
}

func TestExtendForDelayModels(t *testing.T) {
	lin := Params{Model: Linear, KPerUm: 0.07e-12, CPerUm: 0.25e-15}
	if got := lin.ExtendForDelay(100, 7e-12); math.Abs(got-200) > 1e-6 {
		t.Errorf("linear extend = %g, want 200", got)
	}
	elm := Params{Model: Elmore, RPerUm: 3, CPerUm: 0.2e-15}
	e2 := elm.ExtendForDelay(100, 10e-12)
	added := 3*e2*(0.2e-15*e2/2) - 3*100*(0.2e-15*100/2)
	if math.Abs(added-10e-12) > 1e-13 {
		t.Errorf("elmore extend delivered %g", added)
	}
}

func TestRepeatedModelBoundedSkew(t *testing.T) {
	// DME under the Repeated model balances each merge to within half a
	// repeater-count jump (the residual when the balance point lands in a
	// jump and in-branch extension cannot cross it). Residuals accumulate
	// along the merge levels; the cts trim loop absorbs them afterwards.
	// This test pins the *bound*: per-path accumulation stays within
	// halfJump × (merge levels).
	for _, n := range []int{2, 5, 16, 40} {
		rng := rand.New(rand.NewSource(int64(n)))
		sinks := make([]ctree.Sink, n)
		for i := range sinks {
			sinks[i] = ctree.Sink{
				Loc:   geom.Point{X: rng.Float64() * 6000, Y: rng.Float64() * 5000},
				Cap:   19.2e-15, // pseudo-sinks: buffer inputs
				Delay: rng.Float64() * 100e-12,
			}
		}
		tr, err := topo.Build(sinks, geom.Point{X: 3000, Y: 2500})
		if err != nil {
			t.Fatal(err)
		}
		if err := Embed(tr, repParams); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tr.CheckEmbedding(1e-6); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Evaluate arrivals under the same Repeated model the merge used,
		// including the per-merge junction charges.
		skew, delay := repeatedSinkSkew(tr, repParams)
		if delay <= 0 {
			t.Fatalf("n=%d: no delay", n)
		}
		jump := repParams.Repeat.T0 + repParams.Repeat.Rd*repParams.Repeat.Cin
		levels := math.Ceil(math.Log2(float64(n))) + 1
		if bound := jump / 2 * levels; skew > bound {
			t.Errorf("n=%d: model skew %.3f ps over the %.1f ps accumulation bound",
				n, skew*1e12, bound*1e12)
		}
	}
}

// repeatedSinkSkew evaluates sink arrivals under the Repeated model with
// the same junction-charge convention merge() uses.
func repeatedSinkSkew(t *ctree.Tree, p Params) (skew, maxDelay float64) {
	arr := make([]float64, len(t.Nodes))
	lo, hi := math.Inf(1), math.Inf(-1)
	t.PreOrder(func(i int) {
		n := &t.Nodes[i]
		pa := n.Parent
		if pa == ctree.NoNode {
			arr[i] = 0
		} else {
			arr[i] = arr[pa] + p.repeatedDelay(n.EdgeLen)
			// Junction charge: the parent drives this edge's first segment
			// and the sibling's; the path through this child is undercharged
			// by the sibling's first-segment share.
			var sib int = ctree.NoNode
			for _, k := range t.Nodes[pa].Kids {
				if k != ctree.NoNode && k != i {
					sib = k
				}
			}
			if sib != ctree.NoNode {
				arr[i] += p.Repeat.Rd*(p.CPerUm*p.firstSeg(t.Nodes[sib].EdgeLen)+p.Repeat.Cin) + p.Repeat.SlewPenalty
			}
		}
		if si := n.SinkIdx; si != ctree.NoSink {
			a := arr[i] + t.Sinks[si].Delay
			lo = math.Min(lo, a)
			hi = math.Max(hi, a)
		}
	})
	return hi - lo, hi
}
