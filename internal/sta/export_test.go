package sta

// EngineArrays returns the engine's per-node full-pass arrays: edge R,
// edge C, endpoint cap, lumped cap and Elmore delay, then the driver
// outputs (arrival, transition, delay), meaningful at buffered nodes
// only, and the owning stage driver of each node.
func EngineArrays(inc *Incremental) (perNode, perDriver [][]float64, drv []int) {
	return [][]float64{inc.edgeR, inc.edgeC, inc.endCap, inc.downCap, inc.elm},
		[][]float64{inc.stageOutArr, inc.stageOutSlew, inc.stageDelay}, inc.drv
}

// Split returns the pooled engine's split of its latest tree: the
// subtree roots and the top part.
func Split(inc *Incremental) (cuts, top []int) { return inc.cuts, inc.top }
