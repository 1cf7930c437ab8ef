package deps

import (
	"slices"
	"sync"
)

// CSR is the compressed-sparse-row form of the set-dependency DAG over
// a flat set index space: sets are numbered layer-major in plan order
// (layer l's sets occupy [LayerOff[l], LayerOff[l+1])), and the
// predecessor edges are stored as flat offset/target/volume arrays. It
// is built once by Build and consumed by the Stage IV scheduler and the
// event-driven simulator, whose hot loops index these arrays instead of
// chasing per-set slices. The reverse (successor) edges are a derived
// view, built on first use by Successors: only the event-driven engines
// (sim, stream) walk them.
type CSR struct {
	// LayerOff[l] is the flat id of layer l's first set; the final
	// entry is the total set count.
	LayerOff []int32
	// SetLayer[i] is the layer owning flat set i.
	SetLayer []int32
	// Cycles[i] is the execution time of flat set i.
	Cycles []int64

	// Predecessor edges: flat set i depends on the sets
	// Pred[PredOff[i]:PredOff[i+1]], sorted ascending; PredVol carries
	// the per-edge read volume (SetRef.Vol).
	PredOff []int32
	Pred    []int32
	PredVol []int32

	succOnce sync.Once
	succ     SuccView
}

// SuccView is the successor view of a CSR, the exact reverse of its
// predecessor relation: flat set i is read by Succ[Off[i]:Off[i+1]],
// sorted ascending, with the matching volumes in Vol.
type SuccView struct {
	Off  []int32
	Succ []int32
	Vol  []int32
}

// Successors returns the successor view, building it on the first call.
// It is safe for concurrent use (a cached compilation's CSR is shared
// by concurrent simulations and streams); every caller gets the same
// view, which must not be modified.
func (c *CSR) Successors() *SuccView {
	c.succOnce.Do(c.buildSucc)
	return &c.succ
}

// buildSucc transposes the predecessor arrays. Walking consumers in
// flat order writes every successor run already sorted.
func (c *CSR) buildSucc() {
	total := c.NumSets()
	s := SuccView{
		Off:  make([]int32, total+1),
		Succ: make([]int32, len(c.Pred)),
		Vol:  make([]int32, len(c.Pred)),
	}
	for _, p := range c.Pred {
		s.Off[p+1]++
	}
	for i := 0; i < total; i++ {
		s.Off[i+1] += s.Off[i]
	}
	cursor := make([]int32, total)
	copy(cursor, s.Off[:total])
	for i := int32(0); i < int32(total); i++ {
		for e := c.PredOff[i]; e < c.PredOff[i+1]; e++ {
			p := c.Pred[e]
			s.Succ[cursor[p]] = i
			s.Vol[cursor[p]] = c.PredVol[e]
			cursor[p]++
		}
	}
	c.succ = s
}

// assemble concatenates the per-layer edge streams (already sorted and
// deduplicated per set) into Pred/PredVol and rebases each layer's
// PredOff run onto its first edge. The concatenation is positional in
// plan-layer order, so the result does not depend on the order the
// layers were built in.
func (c *CSR) assemble(results []layerEdges) {
	edges := 0
	for li := range results {
		edges += len(results[li].pred)
	}
	c.Pred = make([]int32, 0, edges)
	c.PredVol = make([]int32, 0, edges)
	for li := range results {
		base := int32(len(c.Pred))
		for id := c.LayerOff[li]; id < c.LayerOff[li+1]; id++ {
			c.PredOff[id] += base
		}
		c.Pred = append(c.Pred, results[li].pred...)
		c.PredVol = append(c.PredVol, results[li].vol...)
	}
	c.PredOff[c.NumSets()] = int32(edges)
}

// ID returns the flat id of set si of layer li.
func (c *CSR) ID(li, si int) int32 { return c.LayerOff[li] + int32(si) }

// Set resolves a flat id back to its (layer, set) pair.
func (c *CSR) Set(id int32) (li, si int) {
	l := c.SetLayer[id]
	return int(l), int(id - c.LayerOff[l])
}

// NumSets returns the total set count.
func (c *CSR) NumSets() int { return len(c.SetLayer) }

// NumEdges returns the total dependency-edge count.
func (c *CSR) NumEdges() int { return len(c.Pred) }

// NumLayers returns the layer count.
func (c *CSR) NumLayers() int { return len(c.LayerOff) - 1 }

// Equal reports whether two CSR graphs are identical array for array,
// in both edge directions — the determinism contract of Build across
// worker counts and runs.
func (c *CSR) Equal(o *CSR) bool {
	cs, ov := c.Successors(), o.Successors()
	return slices.Equal(c.LayerOff, o.LayerOff) &&
		slices.Equal(c.SetLayer, o.SetLayer) &&
		slices.Equal(c.Cycles, o.Cycles) &&
		slices.Equal(c.PredOff, o.PredOff) &&
		slices.Equal(c.Pred, o.Pred) &&
		slices.Equal(c.PredVol, o.PredVol) &&
		slices.Equal(cs.Off, ov.Off) &&
		slices.Equal(cs.Succ, ov.Succ) &&
		slices.Equal(cs.Vol, ov.Vol)
}
