package schedule

import (
	"fmt"
	"slices"
	"sort"

	"clsacim/internal/deps"
)

// Item is one scheduled set execution on one replica PE group: the
// derived view of one Timeline entry, returned by value from Item, At
// and CriticalPath.
type Item struct {
	Layer, Set int
	// Replica is the PE group (0 <= Replica < d_i) executing the set.
	Replica    int
	Start, End int64 // cycles
}

// Timeline is the executed set-level timetable shared by the analytic
// scheduler (Schedule), the event-driven engines (sim, stream) and the
// weight-virtualized baseline. Stage IV decides one thing per set, its
// start cycle, so that is all a timeline stores: one int64 per set in
// flat CSR order. Everything else follows from the plan:
//
//   - the layer and the layer-local set index from the position and Off;
//   - the replica from the Stage III rule, Replica(si, d), with
//     d = len(ReplicaActive[layer]);
//   - the end from Start + Cycles[id].
//
// Gantt rendering, JSON export, critical-path analysis and the
// schedule-vs-sim equality check all read this one representation
// through Item, At and End.
type Timeline struct {
	// Policy is the scheduling mode that produced the timeline; its
	// admission window is what Validate and CriticalPath check against.
	Policy Policy
	// Items holds every set's start cycle in flat CSR order (layer-major,
	// raster within a layer): layer l's starts are Items[Off[l]:Off[l+1]],
	// and set s of layer l starts at Items[Off[l]+s].
	Items []int64
	// Off is the per-layer index into Items (length NumLayers+1); it
	// aliases the dependency graph's CSR.LayerOff.
	Off []int32
	// Cycles[id] is set id's Stage I duration; it aliases the dependency
	// graph's CSR.Cycles.
	Cycles []int64
	// Makespan is the total inference time t_NN in cycles.
	Makespan int64
	// LayerActive[l] is the summed busy time of all replicas of layer l.
	LayerActive []int64
	// ReplicaActive[l][r] is the busy time of replica r of layer l.
	ReplicaActive [][]int64
}

// NewTimeline allocates an empty timeline shaped after dg's set plan.
// The per-layer ReplicaActive rows are views into one backing array
// (full-capacity slices, so an append on a row would copy rather than
// clobber its neighbor), keeping the allocation count independent of
// the layer count.
func NewTimeline(dg *deps.Graph, p Policy) *Timeline {
	nl := len(dg.Plan.Layers)
	t := &Timeline{
		Policy:        p,
		Items:         make([]int64, dg.CSR.NumSets()),
		Off:           dg.CSR.LayerOff,
		Cycles:        dg.CSR.Cycles,
		LayerActive:   make([]int64, nl),
		ReplicaActive: make([][]int64, nl),
	}
	total := 0
	for li := range dg.Plan.Layers {
		total += dg.Plan.Layers[li].Group.Dup
	}
	backing := make([]int64, total)
	off := 0
	for li := range dg.Plan.Layers {
		d := dg.Plan.Layers[li].Group.Dup
		t.ReplicaActive[li] = backing[off : off+d : off+d]
		off += d
	}
	return t
}

// NumLayers returns the layer count.
func (t *Timeline) NumLayers() int { return len(t.Off) - 1 }

// ItemsOf returns the start cycles of layer li's sets (set raster order).
func (t *Timeline) ItemsOf(li int) []int64 { return t.Items[t.Off[li]:t.Off[li+1]] }

// End returns the end cycle of flat set id.
func (t *Timeline) End(id int) int64 { return t.Items[id] + t.Cycles[id] }

// At returns the execution of set si of layer li.
func (t *Timeline) At(li, si int) Item {
	id := int(t.Off[li]) + si
	start := t.Items[id]
	return Item{
		Layer: li, Set: si,
		Replica: Replica(si, len(t.ReplicaActive[li])),
		Start:   start, End: start + t.Cycles[id],
	}
}

// Item returns the execution of flat set id, locating its layer by a
// binary search over Off.
func (t *Timeline) Item(id int) Item {
	li := sort.Search(t.NumLayers(), func(l int) bool { return int(t.Off[l+1]) > id })
	return t.At(li, id-int(t.Off[li]))
}

// StartOf returns the earliest start time of layer li's sets.
func (t *Timeline) StartOf(li int) int64 {
	starts := t.ItemsOf(li)
	if len(starts) == 0 {
		return 0
	}
	return slices.Min(starts)
}

// EndOf returns the latest end time of layer li's sets.
func (t *Timeline) EndOf(li int) int64 {
	var max int64
	for id := int(t.Off[li]); id < int(t.Off[li+1]); id++ {
		if e := t.End(id); e > max {
			max = e
		}
	}
	return max
}

// Equal reports whether two timelines describe the same execution:
// identical makespan, start cycles, layer offsets, set durations and
// activity accounting. The policies that produced them are not
// compared.
func (t *Timeline) Equal(o *Timeline) bool {
	if t.Makespan != o.Makespan || !slices.Equal(t.Items, o.Items) || !slices.Equal(t.Off, o.Off) ||
		!slices.Equal(t.Cycles, o.Cycles) || !slices.Equal(t.LayerActive, o.LayerActive) ||
		len(t.ReplicaActive) != len(o.ReplicaActive) {
		return false
	}
	for li := range t.ReplicaActive {
		if !slices.Equal(t.ReplicaActive[li], o.ReplicaActive[li]) {
			return false
		}
	}
	return true
}

// Validate checks that the timeline is executable: it is shaped after
// dg's CSR (so every derived end is start + the set's Stage I cycles),
// sets on one replica do not overlap their PE group, every data
// dependency (plus edge cost) is respected, the activity accounting
// matches, and the policy's admission window holds (no layer starts
// before every layer Window positions back has completed).
func (t *Timeline) Validate(dg *deps.Graph, opt Options) error {
	csr := dg.CSR
	if t.NumLayers() != len(dg.Plan.Layers) || len(t.ReplicaActive) != len(dg.Plan.Layers) {
		return fmt.Errorf("schedule: %d layers, plan has %d", t.NumLayers(), len(dg.Plan.Layers))
	}
	if len(t.Items) != csr.NumSets() {
		return fmt.Errorf("schedule: %d items, plan has %d sets", len(t.Items), csr.NumSets())
	}
	if !slices.Equal(t.Off, csr.LayerOff) || !slices.Equal(t.Cycles, csr.Cycles) {
		return fmt.Errorf("schedule: timeline offsets or cycles differ from the dependency graph's CSR")
	}
	for li, ls := range dg.Plan.Layers {
		d := ls.Group.Dup
		if len(t.ReplicaActive[li]) != d {
			return fmt.Errorf("schedule: layer %d has %d replica rows, plan has %d replicas",
				li, len(t.ReplicaActive[li]), d)
		}
		prevEnd := make([]int64, d)
		var active int64
		for si := 0; si < ls.NumSets(); si++ {
			id := int(csr.LayerOff[li]) + si
			start, end := t.Items[id], t.End(id)
			r := Replica(si, d)
			if start < 0 || end > t.Makespan {
				return fmt.Errorf("schedule: layer %d set %d [%d,%d) outside makespan %d",
					li, si, start, end, t.Makespan)
			}
			if start < prevEnd[r] {
				return fmt.Errorf("schedule: layer %d set %d starts %d before replica %d free at %d (resource conflict)",
					li, si, start, r, prevEnd[r])
			}
			prevEnd[r] = end
			active += csr.Cycles[id]
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				pid := csr.Pred[e]
				need := t.End(int(pid))
				if opt.EdgeCost != nil {
					pl, ps := csr.Set(pid)
					need += opt.EdgeCost(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, li)
				}
				if start < need {
					pl, ps := csr.Set(pid)
					return fmt.Errorf("schedule: layer %d set %d starts %d before dependency L%d/S%d ready at %d",
						li, si, start, pl, ps, need)
				}
			}
		}
		if active != t.LayerActive[li] {
			return fmt.Errorf("schedule: layer %d active %d != recorded %d", li, active, t.LayerActive[li])
		}
	}
	return t.validateWindow()
}

// validateWindow checks the admission rule: no set of layer li starts
// before every layer up to li-K has fully completed.
func (t *Timeline) validateWindow() error {
	k := t.Policy.Window()
	nl := t.NumLayers()
	if k >= nl {
		return nil
	}
	// prefixEnd tracks the max end over layers [0, li-k] as li advances.
	var prefixEnd int64
	for li := k; li < nl; li++ {
		if e := t.EndOf(li - k); e > prefixEnd {
			prefixEnd = e
		}
		for si, start := range t.ItemsOf(li) {
			if start < prefixEnd {
				return fmt.Errorf("schedule: window violation: layer %d set %d starts %d before layer <=%d complete at %d (window %d)",
					li, si, start, li-k, prefixEnd, k)
			}
		}
	}
	return nil
}
