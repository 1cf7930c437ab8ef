// Package metrics computes the paper's evaluation quantities:
// architecture utilization (Eq. 2), inference speedup relative to
// layer-by-layer scheduling, and the Eq. 3 speedup/utilization
// consistency relation. It also derives the per-PE activity and the
// buffer peak of a schedule from its timeline.
package metrics

import (
	"cmp"
	"fmt"
	"slices"

	"clsacim/internal/deps"
	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
)

// Utilization evaluates paper Eq. 2 for a schedule of makespan t_NN
// whose layers were busy layerActive cycles (deps.Graph.Activity, summed
// over each layer's replicas): the mean over all F PEs of the
// architecture of (active cycles / total inference cycles). PEs of one
// group are active exactly while the group executes a set; PEs not
// allocated to any group contribute zero.
func Utilization(makespan int64, layerActive []int64, m *mapping.Mapping) (float64, error) {
	if makespan <= 0 {
		return 0, fmt.Errorf("metrics: empty schedule (makespan %d)", makespan)
	}
	activePE, err := peCycles(layerActive, m)
	if err != nil {
		return 0, err
	}
	if m.F <= 0 {
		return 0, fmt.Errorf("metrics: mapping has F=%d PEs", m.F)
	}
	return float64(activePE) / (float64(m.F) * float64(makespan)), nil
}

// peCycles is the Eq. 2 numerator: each replica's c_i PEs are active
// while that replica executes a set, and layerActive sums busy time
// across replicas.
func peCycles(layerActive []int64, m *mapping.Mapping) (int64, error) {
	if len(layerActive) != len(m.Groups) {
		return 0, fmt.Errorf("metrics: schedule has %d layers, mapping %d groups",
			len(layerActive), len(m.Groups))
	}
	var sum int64
	for li, g := range m.Groups {
		sum += int64(g.PEsPerReplica()) * layerActive[li]
	}
	return sum, nil
}

// PEActive returns the busy cycles of each of the mapping's F PEs given
// each replica's busy cycles (deps.Graph.Activity's replica rows): every
// PE of a replica is active exactly while the replica executes a set.
// PEs that virtualization pools share between layers sum the activity
// of every replica placed on them, so the total is the Eq. 2 numerator
// sum(c_i * LayerActive_i).
func PEActive(replicaActive [][]int64, m *mapping.Mapping) []int64 {
	out := make([]int64, m.F)
	for li, g := range m.Groups {
		for r, a := range replicaActive[li] {
			for _, pe := range g.ReplicaPEs(r) {
				out[pe] += a
			}
		}
	}
	return out
}

// PeakLiveElems returns the largest number of intermediate OFM elements
// live at one instant of the schedule — the aggregate buffer pressure
// on the architecture. A set's output is live on the closed interval
// from its End to the latest End of the sets that read it; an output
// nobody reads is live only at its End. So a set still holds its inputs
// while its own output lands, and simultaneous events need no order.
func PeakLiveElems(s *schedule.Timeline, dg *deps.Graph) int64 {
	csr := dg.CSR
	release := make([]int64, len(s.Items))
	for id := range s.Items {
		end := s.End(id)
		release[id] = max(release[id], end)
		for _, p := range csr.Pred[csr.PredOff[id]:csr.PredOff[id+1]] {
			release[p] = max(release[p], end)
		}
	}
	type event struct{ at, delta int64 }
	events := make([]event, 0, 2*len(s.Items))
	for li := range dg.Plan.Layers {
		ls := &dg.Plan.Layers[li]
		off := int(csr.LayerOff[li])
		for si := 0; si < ls.NumSets(); si++ {
			vol := int64(ls.Box(si).Volume())
			events = append(events, event{s.End(off + si), vol}, event{release[off+si], -vol})
		}
	}
	// At equal times allocations apply before releases (closed intervals).
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(b.delta, a.delta)
	})
	var live, peak int64
	for _, e := range events {
		live += e.delta
		peak = max(peak, live)
	}
	return peak
}

// Speedup returns baseline/makespan: how much faster the measured
// schedule is than the reference (layer-by-layer without duplication in
// the paper's plots).
func Speedup(baselineMakespan, makespan int64) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(baselineMakespan) / float64(makespan)
}

// Eq3Speedup evaluates the paper's Eq. 3 approximation
//
//	S ≈ Ut * (PEmin + x) / (Ut_lbl * PEmin)
//
// relating a configuration's utilization to its speedup. It is exact up
// to set-rounding because the total PE-cycle work sum(c_i * t_i) is
// invariant under duplication and scheduling.
func Eq3Speedup(ut, utLbl float64, peMin, x int) float64 {
	if utLbl <= 0 || peMin <= 0 {
		return 0
	}
	return ut * float64(peMin+x) / (utLbl * float64(peMin))
}

// LatencyNanos converts a cycle count to nanoseconds given the MVM
// latency of one cycle.
func LatencyNanos(cycles int64, tMVMNanos float64) float64 {
	return float64(cycles) * tMVMNanos
}

// EnergyNanoJoule estimates inference energy (extension beyond the
// paper): every PE of a group consumes mvmNanoJ per executed MVM cycle,
// and each crossbar programming operation (weight virtualization)
// consumes writeNanoJ. Idle/leakage power is excluded — the result is
// the dynamic compute energy the utilization metric is about.
func EnergyNanoJoule(layerActive []int64, m *mapping.Mapping, mvmNanoJ, writeNanoJ float64, writes int) (float64, error) {
	cycles, err := peCycles(layerActive, m)
	if err != nil {
		return 0, err
	}
	return float64(cycles)*mvmNanoJ + float64(writes)*writeNanoJ, nil
}
