package schedule

import (
	"fmt"

	"clsacim/internal/deps"
)

// PathStep is one element of a critical path: the executed item plus
// the reason it could not start earlier.
type PathStep struct {
	Item Item
	// Cause explains what bound the step's start time: "dep" (a data
	// dependency), "resource" (the previous set on the same replica),
	// "window" (the policy's admission gate on a preceding layer's
	// completion), or "start" (ready at time zero).
	Cause string
}

// CriticalPath walks backward from the set that finishes at the
// makespan, at each step moving to whichever predecessor determined the
// current set's start time — the data dependency whose completion (plus
// edge cost) equals the start, the previous set on the same replica, or
// the admission-window gate. The returned path is in execution order
// (earliest first) and explains which layer chain limits the inference
// latency.
func (t *Timeline) CriticalPath(dg *deps.Graph, opt Options) ([]PathStep, error) {
	if t.Makespan == 0 {
		return nil, fmt.Errorf("schedule: empty timeline")
	}
	csr := dg.CSR
	// Locate the finishing set.
	var cur Item
	found := false
	for id := range t.Items {
		if t.End(id) == t.Makespan {
			cur = t.Item(id)
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("schedule: no item ends at makespan %d", t.Makespan)
	}

	k := Unbounded
	if t.Policy != nil {
		k = t.Policy.Window()
	}
	var rev []PathStep
	for {
		step := PathStep{Item: cur, Cause: "start"}
		// Previous set on the same replica, found through the timeline's
		// own dispatch rule so any Policy works (cur.Set - d under the
		// built-in raster round-robin).
		prevSet := -1
		for sj := cur.Set - 1; sj >= 0; sj-- {
			if t.At(cur.Layer, sj).Replica == cur.Replica {
				prevSet = sj
				break
			}
		}
		var next Item
		if prevSet >= 0 {
			prev := t.At(cur.Layer, prevSet)
			if prev.End == cur.Start {
				step.Cause = "resource"
				next = prev
			}
		}
		if step.Cause == "start" {
			id := csr.ID(cur.Layer, cur.Set)
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				pid := csr.Pred[e]
				end := t.End(int(pid))
				if opt.EdgeCost != nil {
					pl, ps := csr.Set(pid)
					end += opt.EdgeCost(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, cur.Layer)
				}
				if end == cur.Start {
					step.Cause = "dep"
					next = t.Item(int(pid))
					break
				}
			}
		}
		if step.Cause == "start" && cur.Layer >= k {
			// The admission window: some layer up to cur.Layer-k finished
			// exactly at cur.Start.
			for lj := cur.Layer - k; lj >= 0 && step.Cause == "start"; lj-- {
				for si := range t.ItemsOf(lj) {
					if it := t.At(lj, si); it.End == cur.Start {
						step.Cause = "window"
						next = it
						break
					}
				}
			}
		}
		rev = append(rev, step)
		if step.Cause == "start" {
			break
		}
		cur = next
		if len(rev) > 1<<22 {
			return nil, fmt.Errorf("schedule: critical path does not terminate")
		}
	}
	// Reverse into execution order.
	out := make([]PathStep, len(rev))
	for i, st := range rev {
		out[len(rev)-1-i] = st
	}
	return out, nil
}

// PathLayerSummary aggregates a critical path per layer: how many cycles
// of the makespan each layer contributes (its executing spans on the
// path).
type PathLayerSummary struct {
	Layer  int
	Name   string
	Cycles int64
	Steps  int
}

// SummarizeCriticalPath groups consecutive path steps by layer and sums
// their durations.
func SummarizeCriticalPath(dg *deps.Graph, path []PathStep) []PathLayerSummary {
	var out []PathLayerSummary
	for _, st := range path {
		li := st.Item.Layer
		dur := st.Item.End - st.Item.Start
		if n := len(out); n > 0 && out[n-1].Layer == li {
			out[n-1].Cycles += dur
			out[n-1].Steps++
			continue
		}
		out = append(out, PathLayerSummary{
			Layer:  li,
			Name:   dg.Plan.Layers[li].Group.Node.Name,
			Cycles: dur,
			Steps:  1,
		})
	}
	return out
}
