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

// Utilization evaluates paper Eq. 2 over a schedule: the mean over all F
// PEs of the architecture of (active cycles / total inference cycles).
// PEs of one group are active exactly while the group executes a set;
// PEs not allocated to any group contribute zero.
func Utilization(s *schedule.Timeline, m *mapping.Mapping) (float64, error) {
	if s.Makespan <= 0 {
		return 0, fmt.Errorf("metrics: empty schedule (makespan %d)", s.Makespan)
	}
	if len(s.LayerActive) != len(m.Groups) {
		return 0, fmt.Errorf("metrics: schedule has %d layers, mapping %d groups",
			len(s.LayerActive), len(m.Groups))
	}
	if m.F <= 0 {
		return 0, fmt.Errorf("metrics: mapping has F=%d PEs", m.F)
	}
	var activePE int64 // sum over PEs of active cycles
	for li, g := range m.Groups {
		// Each replica's c_i PEs are active while that replica executes
		// a set; LayerActive sums busy time across replicas.
		activePE += int64(g.PEsPerReplica()) * s.LayerActive[li]
	}
	return float64(activePE) / (float64(m.F) * float64(s.Makespan)), nil
}

// PEActive returns the busy cycles of each of the mapping's F PEs: every
// PE of a replica is active exactly while the replica executes a set.
// PEs that virtualization pools share between layers sum the activity
// of every replica placed on them, so the total is the Eq. 2 numerator
// sum(c_i * LayerActive_i).
func PEActive(s *schedule.Timeline, m *mapping.Mapping) []int64 {
	out := make([]int64, m.F)
	for li, g := range m.Groups {
		for r, a := range s.ReplicaActive[li] {
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
		release[id] = max(release[id], s.Items[id].End)
		for _, p := range csr.Pred[csr.PredOff[id]:csr.PredOff[id+1]] {
			release[p] = max(release[p], s.Items[id].End)
		}
	}
	type event struct{ at, delta int64 }
	events := make([]event, 0, 2*len(s.Items))
	for li := range dg.Plan.Layers {
		ls := &dg.Plan.Layers[li]
		off := int(csr.LayerOff[li])
		for si := 0; si < ls.NumSets(); si++ {
			vol := int64(ls.Box(si).Volume())
			events = append(events, event{s.Items[off+si].End, vol}, event{release[off+si], -vol})
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
func EnergyNanoJoule(s *schedule.Timeline, m *mapping.Mapping, mvmNanoJ, writeNanoJ float64, writes int) (float64, error) {
	if len(s.LayerActive) != len(m.Groups) {
		return 0, fmt.Errorf("metrics: schedule has %d layers, mapping %d groups",
			len(s.LayerActive), len(m.Groups))
	}
	var peCycles int64
	for li, g := range m.Groups {
		peCycles += int64(g.PEsPerReplica()) * s.LayerActive[li]
	}
	return float64(peCycles)*mvmNanoJ + float64(writes)*writeNanoJ, nil
}
