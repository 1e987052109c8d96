package core

import (
	"fmt"
	"math"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// CornerMetrics is the timing view of one analysis corner.
type CornerMetrics struct {
	Corner    tech.Corner
	Skew      float64 // s
	WorstSlew float64 // s
	SlewViol  int
	MaxInsDel float64 // s
}

// MultiCornerReport is the cross-corner summary signoff cares about.
type MultiCornerReport struct {
	Corners []CornerMetrics
	// WorstSkew is the largest single-corner skew.
	WorstSkew float64
	// CrossCornerSkew is the spread of any single sink's arrival across
	// corners, maximized over sinks — the penalty a chip pays when launch
	// and capture paths see different silicon.
	CrossCornerSkew float64
	// TotalViol sums slew violations over corners.
	TotalViol int
}

// EvaluateCorners analyzes the tree at every corner by scaling the
// electrical view (wire R/C and buffer delays) with the corner derates —
// the same mechanism the variation engine uses, so corner and Monte Carlo
// results are directly comparable.
func EvaluateCorners(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, corners []tech.Corner) (*MultiCornerReport, error) {
	if len(corners) == 0 {
		return nil, fmt.Errorf("core: no corners")
	}
	rep := &MultiCornerReport{}
	n := len(t.Nodes)
	// Per-sink arrivals per corner for the cross-corner spread.
	var sinkNodes []int
	for i := range t.Nodes {
		if t.Nodes[i].SinkIdx != ctree.NoSink {
			sinkNodes = append(sinkNodes, i)
		}
	}
	arr := make([][]float64, 0, len(corners))
	eng := sta.NewIncremental(te, lib)
	for _, c := range corners {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		edgeR := make([]float64, n)
		edgeC := make([]float64, n)
		bufScale := make([]float64, n)
		for i := range t.Nodes {
			nd := &t.Nodes[i]
			if nd.Parent != ctree.NoNode {
				edgeR[i] = te.WireR(nd.EdgeLen, nd.Rule) * c.RFactor
				edgeC[i] = te.WireC(nd.EdgeLen, nd.Rule) * c.CFactor
			}
			bufScale[i] = c.BufFactor
		}
		res, err := eng.Full(t, inSlew, &sta.Overrides{
			EdgeR: edgeR, EdgeC: edgeC, BufScale: bufScale,
		}, nil)
		if err != nil {
			return nil, err
		}
		worst, _ := res.WorstSlew()
		cm := CornerMetrics{
			Corner:    c,
			Skew:      res.Skew(),
			WorstSlew: worst,
			SlewViol:  res.SlewViolations(te.MaxSlew),
			MaxInsDel: res.MaxSinkArrival(),
		}
		rep.Corners = append(rep.Corners, cm)
		rep.WorstSkew = math.Max(rep.WorstSkew, cm.Skew)
		rep.TotalViol += cm.SlewViol
		ca := make([]float64, len(sinkNodes))
		for si, v := range sinkNodes {
			ca[si] = res.Arrival[v]
		}
		arr = append(arr, ca)
	}
	for si := range sinkNodes {
		lo, hi := math.Inf(1), math.Inf(-1)
		for ci := range arr {
			lo = math.Min(lo, arr[ci][si])
			hi = math.Max(hi, arr[ci][si])
		}
		rep.CrossCornerSkew = math.Max(rep.CrossCornerSkew, hi-lo)
	}
	return rep, nil
}
