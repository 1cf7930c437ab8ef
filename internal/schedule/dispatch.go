package schedule

import "clsacim/internal/deps"

// Dispatch is the immutable Stage III dispatch plan of one compiled
// workload: which sets each replica PE group executes, in raster
// order, laid out flat in the CSR's offset-indexed style.
// Replicas are numbered globally (layer li owns the replica ids
// [RepOff[li], RepOff[li+1])); replica g executes the layer-local set
// indices Order[OrderOff[g]:OrderOff[g+1]] in dispatch order.
//
// The plan depends only on the dependency graph's set plan (Stage III
// dispatch is the fixed Replica rule), so event engines executing many
// concurrent inferences of one compilation (internal/stream) share a
// single Dispatch and keep only per-inference cursors, and one plan
// serves every scheduling mode of the compilation.
type Dispatch struct {
	RepOff   []int32
	OrderOff []int32
	Order    []int32
	// RepOf[id] is the global replica group executing flat CSR set id —
	// the event engines' O(1) inverse of the Replica rule.
	RepOf []int32
}

// NumReplicas returns the total replica PE group count across layers.
func (d *Dispatch) NumReplicas() int { return len(d.OrderOff) - 1 }

// Replicas returns the number of replica groups of layer li.
func (d *Dispatch) Replicas(li int) int { return int(d.RepOff[li+1] - d.RepOff[li]) }

// NewDispatch builds the dispatch plan: count the sets each global
// replica serves, prefix-sum into OrderOff, then place each set at its
// replica's cursor (raster order within a replica, matching Stage III).
func NewDispatch(dg *deps.Graph) *Dispatch {
	nl := len(dg.Plan.Layers)
	ns := dg.CSR.NumSets()
	totalReps := 0
	for li := range dg.Plan.Layers {
		totalReps += dg.Plan.Layers[li].Group.Dup
	}
	d := &Dispatch{
		RepOff:   make([]int32, nl+1),
		OrderOff: make([]int32, totalReps+1),
		Order:    make([]int32, ns),
		RepOf:    make([]int32, ns),
	}
	reps := 0
	for li := range dg.Plan.Layers {
		d.RepOff[li] = int32(reps)
		reps += dg.Plan.Layers[li].Group.Dup
	}
	d.RepOff[nl] = int32(reps)
	cnt := make([]int32, totalReps)
	for li, ls := range dg.Plan.Layers {
		base := d.RepOff[li]
		dup := ls.Group.Dup
		for si := 0; si < ls.NumSets(); si++ {
			cnt[base+int32(Replica(si, dup))]++
		}
	}
	var off int32
	for g, n := range cnt {
		d.OrderOff[g] = off
		off += n
		cnt[g] = d.OrderOff[g] // reuse as write cursor
	}
	d.OrderOff[totalReps] = off
	id := int32(0)
	for li, ls := range dg.Plan.Layers {
		base := d.RepOff[li]
		dup := ls.Group.Dup
		for si := 0; si < ls.NumSets(); si++ {
			g := base + int32(Replica(si, dup))
			d.Order[cnt[g]] = int32(si)
			cnt[g]++
			d.RepOf[id] = g
			id++
		}
	}
	return d
}
