package schedule

import (
	"fmt"

	"clsacim/internal/deps"
)

// Item is one scheduled set execution on one replica PE group.
type Item struct {
	Layer, Set int
	// Replica is the PE group (0 <= Replica < d_i) executing the set.
	Replica    int
	Start, End int64 // cycles
}

// Timeline is the executed set-level timetable shared by the analytic
// scheduler (Schedule) and the event-driven simulator (sim.Run): one
// flat Item per set in CSR order, with a per-layer index. Gantt
// rendering, JSON export, critical-path analysis, and the
// schedule-vs-sim equality check all operate on this one
// representation.
type Timeline struct {
	// Policy is the scheduling strategy that produced the timeline.
	Policy Policy
	// Items holds every set execution in flat CSR order (layer-major,
	// raster within a layer): layer l's items are
	// Items[Off[l]:Off[l+1]], and set s of layer l is Items[Off[l]+s].
	Items []Item
	// Off is the per-layer index into Items (length NumLayers+1); it
	// aliases the dependency graph's CSR.LayerOff.
	Off []int32
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
		Items:         make([]Item, dg.CSR.NumSets()),
		Off:           dg.CSR.LayerOff,
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

// ItemsOf returns layer li's items (set raster order).
func (t *Timeline) ItemsOf(li int) []Item { return t.Items[t.Off[li]:t.Off[li+1]] }

// At returns the item of set si of layer li.
func (t *Timeline) At(li, si int) *Item { return &t.Items[int(t.Off[li])+si] }

// StartOf returns the earliest start time of layer li's sets.
func (t *Timeline) StartOf(li int) int64 {
	items := t.ItemsOf(li)
	if len(items) == 0 {
		return 0
	}
	min := items[0].Start
	for _, it := range items {
		if it.Start < min {
			min = it.Start
		}
	}
	return min
}

// EndOf returns the latest end time of layer li's sets.
func (t *Timeline) EndOf(li int) int64 {
	var max int64
	for _, it := range t.ItemsOf(li) {
		if it.End > max {
			max = it.End
		}
	}
	return max
}

// Equal reports whether two timelines describe the same execution:
// identical makespan, items, and activity accounting. The policies
// that produced them are not compared.
func (t *Timeline) Equal(o *Timeline) bool {
	if t.Makespan != o.Makespan || len(t.Items) != len(o.Items) || len(t.Off) != len(o.Off) {
		return false
	}
	for i := range t.Items {
		if t.Items[i] != o.Items[i] {
			return false
		}
	}
	for i := range t.Off {
		if t.Off[i] != o.Off[i] {
			return false
		}
	}
	for li := range t.LayerActive {
		if t.LayerActive[li] != o.LayerActive[li] {
			return false
		}
		if len(t.ReplicaActive[li]) != len(o.ReplicaActive[li]) {
			return false
		}
		for r := range t.ReplicaActive[li] {
			if t.ReplicaActive[li][r] != o.ReplicaActive[li][r] {
				return false
			}
		}
	}
	return true
}

// Validate checks that the timeline is executable: sets follow the
// policy's Stage III dispatch per replica without overlapping their PE
// group, durations match the set sizes, every data dependency (plus
// edge cost) is respected, and the policy's admission window holds (no
// layer starts before every layer Window positions back has
// completed).
func (t *Timeline) Validate(dg *deps.Graph, opt Options) error {
	if t.Policy == nil {
		return fmt.Errorf("schedule: timeline has no policy")
	}
	csr := dg.CSR
	if t.NumLayers() != len(dg.Plan.Layers) {
		return fmt.Errorf("schedule: %d layers, plan has %d", t.NumLayers(), len(dg.Plan.Layers))
	}
	if len(t.Items) != csr.NumSets() {
		return fmt.Errorf("schedule: %d items, plan has %d sets", len(t.Items), csr.NumSets())
	}
	for li, ls := range dg.Plan.Layers {
		items := t.ItemsOf(li)
		if len(items) != ls.NumSets() {
			return fmt.Errorf("schedule: layer %d has %d items, plan has %d sets",
				li, len(items), ls.NumSets())
		}
		d := ls.Group.Dup
		prevEnd := make([]int64, d)
		var active int64
		for si := range items {
			it := items[si]
			id := csr.ID(li, si)
			if want := t.Policy.Replica(si, d); it.Replica != want {
				return fmt.Errorf("schedule: layer %d set %d on replica %d, want %d (dispatch rule)",
					li, si, it.Replica, want)
			}
			if it.Start < 0 || it.End > t.Makespan {
				return fmt.Errorf("schedule: layer %d set %d [%d,%d) outside makespan %d",
					li, si, it.Start, it.End, t.Makespan)
			}
			if it.End-it.Start != csr.Cycles[id] {
				return fmt.Errorf("schedule: layer %d set %d duration %d != %d cycles",
					li, si, it.End-it.Start, csr.Cycles[id])
			}
			if it.Start < prevEnd[it.Replica] {
				return fmt.Errorf("schedule: layer %d set %d starts %d before replica %d free at %d (resource conflict)",
					li, si, it.Start, it.Replica, prevEnd[it.Replica])
			}
			prevEnd[it.Replica] = it.End
			active += it.End - it.Start
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				pid := csr.Pred[e]
				need := t.Items[pid].End
				if opt.EdgeCost != nil {
					pl, ps := csr.Set(pid)
					need += opt.EdgeCost(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, li)
				}
				if it.Start < need {
					pl, ps := csr.Set(pid)
					return fmt.Errorf("schedule: layer %d set %d starts %d before dependency L%d/S%d ready at %d",
						li, si, it.Start, pl, ps, need)
				}
			}
		}
		if active != t.LayerActive[li] {
			return fmt.Errorf("schedule: layer %d active %d != recorded %d", li, active, t.LayerActive[li])
		}
	}
	return t.validateWindow(dg)
}

// validateWindow checks the admission rule: no set of layer li starts
// before every layer up to li-K has fully completed.
func (t *Timeline) validateWindow(dg *deps.Graph) error {
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
		for _, it := range t.ItemsOf(li) {
			if it.Start < prefixEnd {
				return fmt.Errorf("schedule: window violation: layer %d set %d starts %d before layer <=%d complete at %d (window %d)",
					li, it.Set, it.Start, li-k, prefixEnd, k)
			}
		}
	}
	return nil
}
