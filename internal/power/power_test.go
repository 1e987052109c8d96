package power

import (
	"math"
	"strings"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// analyzedPair returns an analyzed two-sink buffered tree.
func analyzedPair(t *testing.T, te *tech.Tech, lib *cell.Library) *sta.Result {
	t.Helper()
	sinks := []ctree.Sink{
		{Name: "s0", Loc: geom.Point{X: 0, Y: 0}, Cap: 2e-15},
		{Name: "s1", Loc: geom.Point{X: 1000, Y: 0}, Cap: 2e-15},
	}
	tr := ctree.NewTree(sinks, geom.Point{})
	l0 := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{ctree.NoNode, ctree.NoNode}, SinkIdx: 0, Loc: sinks[0].Loc, EdgeLen: 500, BufIdx: ctree.NoBuf})
	l1 := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{ctree.NoNode, ctree.NoNode}, SinkIdx: 1, Loc: sinks[1].Loc, EdgeLen: 500, BufIdx: ctree.NoBuf})
	r := tr.AddNode(ctree.Node{Parent: ctree.NoNode, Kids: [2]int{l0, l1}, SinkIdx: ctree.NoSink, Loc: geom.Point{X: 500, Y: 0}, BufIdx: 3})
	tr.Nodes[l0].Parent = r
	tr.Nodes[l1].Parent = r
	tr.Root = r
	tr.SetAllRules(te.DefaultRule)
	res, err := sta.Analyze(tr, te, lib, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestComputeMatchesHand(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	res := analyzedPair(t, te, lib)
	b := Compute(res, te)
	cv2f := te.Vdd * te.Vdd * te.Freq
	if math.Abs(b.Wire-res.WireCap*cv2f) > 1e-12 {
		t.Errorf("Wire = %g", b.Wire)
	}
	if math.Abs(b.SinkPins-4e-15*cv2f) > 1e-15 {
		t.Errorf("SinkPins = %g", b.SinkPins)
	}
	buf := &lib.Buffers[3]
	if math.Abs(b.BufPins-buf.InputCap*cv2f) > 1e-15 {
		t.Errorf("BufPins = %g", b.BufPins)
	}
	if math.Abs(b.BufInt-buf.InternalCap*cv2f) > 1e-15 {
		t.Errorf("BufInt = %g", b.BufInt)
	}
	if b.Leakage != buf.Leakage {
		t.Errorf("Leakage = %g", b.Leakage)
	}
	want := (res.TotalSwitchedCap())*cv2f + buf.Leakage
	if math.Abs(b.Total()-want) > want*1e-12 {
		t.Errorf("Total = %g, want %g", b.Total(), want)
	}
}

func TestPowerScalesWithFreqAndVdd(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	res := analyzedPair(t, te, lib)
	base := Compute(res, te)

	fast := tech.Tech45()
	fast.Freq *= 2
	if got := Compute(res, fast); math.Abs(got.Wire-2*base.Wire) > base.Wire*1e-9 {
		t.Error("dynamic power must double with frequency")
	}
	hot := tech.Tech45()
	hot.Vdd *= 2
	if got := Compute(res, hot); math.Abs(got.Wire-4*base.Wire) > base.Wire*1e-9 {
		t.Error("dynamic power must quadruple with Vdd doubling")
	}
}

func TestString(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	s := Compute(analyzedPair(t, te, lib), te).String()
	if !strings.Contains(s, "total") || !strings.Contains(s, "mW") {
		t.Errorf("String = %q", s)
	}
}
