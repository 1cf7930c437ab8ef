package deps

// Replica is the Stage III dispatch rule (paper §IV-3): set si of a
// layer with d replica PE groups runs on replica si % d, so a layer's
// sets go to its replicas round-robin in raster order ("the input
// vectors are evenly distributed among the duplicates", paper §III-C),
// and each replica runs its share in raster order. The dominant view
// below rests on it, so it lives here; schedule.Replica is this rule.
func Replica(si, d int) int { return si % d }

// Dominant returns the dominant-predecessor view of the graph, building
// it on the first call. It is a CSR sharing the graph's LayerOff,
// SetLayer and Cycles whose PredOff/Pred keep, for every consumer set,
// predecessor layer and replica of that layer (Replica under the plan's
// Group.Dup), only the consumer's last predecessor in raster order. It
// carries no PredVol.
//
// The view is exact for idealized (zero-cost) edges under the plan's own
// duplication: a dropped predecessor p runs on the same replica as a
// kept predecessor q > p of the same layer, and a replica runs its sets
// in raster order, so q starts no earlier than p finishes, and every
// schedule that waits for q has waited for p. Edge costs break this (p's
// edge may cost more than q's), and so does any other duplication vector
// (p and q may land on different replicas); both use the full CSR.
//
// The view depends on the plan's duplication, so it lives on the
// per-compilation Graph, never on the CSR, which the Engine's graph tier
// shares among compilations of different duplication vectors. It is
// safe for concurrent use; every caller gets the same view, which must
// not be modified.
func (dg *Graph) Dominant() *CSR {
	dg.domOnce.Do(dg.buildDominant)
	return dg.dom
}

// buildDominant sizes the view in a first pass and fills it in a
// second, so that it allocates only the view itself.
func (dg *Graph) buildDominant() {
	c := dg.CSR
	maxDup := 1
	for _, ls := range dg.Plan.Layers {
		maxDup = max(maxDup, ls.Group.Dup)
	}
	seen := make([]uint32, maxDup)
	var stamp uint32
	total := c.NumSets()
	off := make([]int32, total+1)
	for i := 0; i < total; i++ {
		off[i+1] = off[i] + int32(dg.dominant(i, seen, &stamp, nil))
	}
	pred := make([]int32, off[total])
	for i := 0; i < total; i++ {
		dg.dominant(i, seen, &stamp, pred[off[i]:off[i+1]])
	}
	dg.dom = &CSR{
		LayerOff: c.LayerOff,
		SetLayer: c.SetLayer,
		Cycles:   c.Cycles,
		PredOff:  off,
		Pred:     pred,
	}
}

// dominant returns the number of dominant predecessors of flat set i
// and, when out is non-nil, writes them into it in ascending order. It
// walks the set's predecessor run backwards, one predecessor layer at a
// time (a run is sorted by flat id, which is layer-major), and keeps a
// predecessor only if no later one of the same layer sits on its
// replica: seen[r] holds the stamp of the last (set, layer) segment
// that kept a predecessor on replica r.
func (dg *Graph) dominant(i int, seen []uint32, stamp *uint32, out []int32) int {
	c := dg.CSR
	n := 0
	layer := int32(-1)
	for e := c.PredOff[i+1] - 1; e >= c.PredOff[i]; e-- {
		p := c.Pred[e]
		if l := c.SetLayer[p]; l != layer {
			layer = l
			*stamp++
		}
		r := Replica(int(p-c.LayerOff[layer]), dg.Plan.Layers[layer].Group.Dup)
		if seen[r] != *stamp {
			seen[r] = *stamp
			n++
			if out != nil {
				out[len(out)-n] = p
			}
		}
	}
	return n
}
