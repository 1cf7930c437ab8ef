package deps

// Activity returns the busy cycles of the graph's plan, per layer and
// per replica PE group, computing them on the first call. Stage III
// fixes the replica of each set (Replica), so neither depends on the
// policy, the edge costs or when the sets start, and every inference of
// the plan, in a stream too, records the same: a timeline, a report's
// Eq. 2 terms and a stream's per-PE activity all read these rows. It is
// the one place set cycles are added into activity rows.
//
// The replica rows are views into one backing array (full-capacity
// slices, so an append on a row would copy rather than clobber its
// neighbor). Like Dominant, the rows depend on the plan's duplication,
// so they live on the per-compilation Graph; every caller gets the same
// rows, which must not be modified.
func (dg *Graph) Activity() (layer []int64, replica [][]int64) {
	dg.actOnce.Do(dg.buildActivity)
	return dg.layerAct, dg.replicaAct
}

func (dg *Graph) buildActivity() {
	nl := len(dg.Plan.Layers)
	layer := make([]int64, nl)
	replica := make([][]int64, nl)
	total := 0
	for li := range dg.Plan.Layers {
		total += dg.Plan.Layers[li].Group.Dup
	}
	backing := make([]int64, total)
	off := 0
	c := dg.CSR
	for li := range dg.Plan.Layers {
		d := dg.Plan.Layers[li].Group.Dup
		replica[li] = backing[off : off+d : off+d]
		off += d
		// Replica r runs the sets si with Replica(si, d) == r: r, r+d,
		// r+2d and so on.
		cycles := c.Cycles[c.LayerOff[li]:c.LayerOff[li+1]]
		for r := range replica[li] {
			var a int64
			for si := r; si < len(cycles); si += d {
				a += cycles[si]
			}
			replica[li][r] = a
			layer[li] += a
		}
	}
	dg.layerAct, dg.replicaAct = layer, replica
}
