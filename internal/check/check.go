// Package check is an independent invariant checker for execution
// timelines: given a compiled workload (mapping + dependency graph) and
// the policy a timeline claims to follow, Timeline re-derives every
// property a legal CLSA-CIM execution must satisfy and reports the first
// violation as a typed error.
//
// The checker is deliberately separate from the machinery that produces
// timelines: it reads only the stored start cycles and activity rows,
// derives every end from the graph's own CSR.Cycles and every replica
// from the policy it is given, and shares no code with the Stage IV
// list scheduler
// (package schedule) or the event-driven simulator (package sim), so a
// bug in either engine cannot also hide in the oracle that judges it.
// Both engines run it behind a debug option, the public Engine exposes
// it through clsacim.WithValidation, and the differential fuzz harness
// (FuzzScheduleVsSim) drives it over randomized models.
//
// The invariant set:
//
//   - Shape: the timeline is laid out on the workload's CSR (one start
//     per Stage I set, the CSR's layer offsets and set cycle counts, so
//     every set's end is its start plus its Stage I cycles), the
//     policy dispatches every set to a replica inside the layer's
//     duplication range, and start times are non-negative.
//   - Dependency order: every CSR dependency edge is respected — a set
//     starts only after each predecessor set has completed, plus the
//     configured edge cost (NoC/GPEU).
//   - Crossbar exclusivity: no physical PE executes two sets at once.
//     Sets of the same replica PE group must serialize, and groups that
//     share PEs (weight virtualization) must never overlap in time.
//   - Window admission: under a window-K policy no set of layer l starts
//     before every layer up to l-K has fully completed.
//   - Conservation (Stage III/IV accounting): the per-layer and
//     per-replica active-cycle totals recorded on the timeline match
//     the sets' Stage I cycles under the policy's dispatch.
//   - Makespan/metrics consistency: the makespan is exactly the latest
//     item end, and paper Eq. 2 utilization computed from the timeline
//     is a valid fraction in (0, 1].
package check

import (
	"fmt"
	"sort"

	"clsacim/internal/deps"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
	"clsacim/internal/schedule"
)

// Kind classifies a Violation by the invariant it breaks.
type Kind string

// The invariant classes Timeline asserts.
const (
	KindShape        Kind = "shape"
	KindDependency   Kind = "dependency"
	KindExclusivity  Kind = "exclusivity"
	KindWindow       Kind = "window"
	KindConservation Kind = "conservation"
	KindMakespan     Kind = "makespan"
)

// Violation is one broken invariant. Layer/Set locate the offending item
// when the violation is set-specific (-1 otherwise).
type Violation struct {
	Kind       Kind
	Layer, Set int
	Msg        string
}

func (v *Violation) Error() string {
	if v.Layer >= 0 {
		return fmt.Sprintf("check: %s violation at L%d/S%d: %s", v.Kind, v.Layer, v.Set, v.Msg)
	}
	return fmt.Sprintf("check: %s violation: %s", v.Kind, v.Msg)
}

func violation(k Kind, li, si int, format string, args ...any) error {
	return &Violation{Kind: k, Layer: li, Set: si, Msg: fmt.Sprintf(format, args...)}
}

// Options configures the checker.
type Options struct {
	// EdgeCost is the dependency-edge cost the timeline was scheduled
	// under (nil = the paper's idealized zero-cost data movement). It
	// must match the producing run's cost model, or legal timelines will
	// be rejected.
	EdgeCost schedule.EdgeCostFn
}

// Timeline asserts the full invariant set on tl, which claims to execute
// the workload dg on mapping m under policy p. It returns nil for a
// legal execution and a *Violation describing the first broken invariant
// otherwise.
func Timeline(m *mapping.Mapping, dg *deps.Graph, p schedule.Policy, tl *schedule.Timeline, opt Options) error {
	if m == nil || dg == nil || dg.CSR == nil || tl == nil {
		return violation(KindShape, -1, -1, "nil mapping, dependency graph, CSR, or timeline")
	}
	if p == nil {
		return violation(KindShape, -1, -1, "nil policy")
	}
	csr := dg.CSR
	nl := len(dg.Plan.Layers)
	if len(m.Groups) != nl {
		return violation(KindShape, -1, -1, "mapping has %d groups, plan %d layers", len(m.Groups), nl)
	}
	if len(tl.Off) != nl+1 || len(tl.LayerActive) != nl || len(tl.ReplicaActive) != nl {
		return violation(KindShape, -1, -1,
			"timeline indexes %d layers, plan has %d", len(tl.Off)-1, nl)
	}
	if len(tl.Items) != csr.NumSets() || len(tl.Cycles) != csr.NumSets() {
		return violation(KindShape, -1, -1, "%d starts and %d durations, plan has %d sets",
			len(tl.Items), len(tl.Cycles), csr.NumSets())
	}
	rep, err := checkShape(m, dg, p, tl)
	if err != nil {
		return err
	}
	if err := checkDependencies(dg, tl, opt.EdgeCost); err != nil {
		return err
	}
	if err := checkExclusivity(m, dg, tl, rep); err != nil {
		return err
	}
	if err := checkWindow(dg, p, tl); err != nil {
		return err
	}
	if err := checkConservation(dg, tl, rep); err != nil {
		return err
	}
	return checkMakespan(m, dg, tl)
}

// replicas returns the policy's Stage III dispatch of every set of dg:
// rep[id] is the replica executing flat set id. A replica outside its
// layer's duplication range is a shape violation.
func replicas(p schedule.Policy, dg *deps.Graph) ([]int32, error) {
	rep := make([]int32, dg.CSR.NumSets())
	for li, ls := range dg.Plan.Layers {
		d := ls.Group.Dup
		base := int(dg.CSR.LayerOff[li])
		for si := 0; si < ls.NumSets(); si++ {
			r := p.Replica(si, d)
			if r < 0 || r >= d {
				return nil, violation(KindShape, li, si, "replica %d outside [0, %d)", r, d)
			}
			rep[base+si] = int32(r)
		}
	}
	return rep, nil
}

// checkShape verifies that the timeline is laid out on dg's CSR (its
// layer offsets and set durations are the graph's own), that every set
// runs on a replica the layer actually has, and that start times are
// sane. It returns the policy's dispatch (see replicas).
func checkShape(m *mapping.Mapping, dg *deps.Graph, p schedule.Policy, tl *schedule.Timeline) ([]int32, error) {
	csr := dg.CSR
	nl := len(dg.Plan.Layers)
	if tl.Off[nl] != csr.LayerOff[nl] {
		return nil, violation(KindShape, -1, -1, "timeline ends at offset %d, CSR at %d", tl.Off[nl], csr.LayerOff[nl])
	}
	for li, ls := range dg.Plan.Layers {
		if tl.Off[li] != csr.LayerOff[li] {
			return nil, violation(KindShape, li, -1, "layer offset %d != CSR offset %d", tl.Off[li], csr.LayerOff[li])
		}
		d := m.Groups[li].Dup
		if d != ls.Group.Dup {
			return nil, violation(KindShape, li, -1, "mapping duplication %d != plan duplication %d", d, ls.Group.Dup)
		}
		if len(tl.ReplicaActive[li]) != d {
			return nil, violation(KindShape, li, -1,
				"replica accounting has %d rows, layer has %d replicas", len(tl.ReplicaActive[li]), d)
		}
		for si := 0; si < ls.NumSets(); si++ {
			id := int(csr.LayerOff[li]) + si
			if got, want := tl.Cycles[id], csr.Cycles[id]; got != want {
				return nil, violation(KindShape, li, si, "duration %d != %d Stage I cycles", got, want)
			}
			if tl.Items[id] < 0 {
				return nil, violation(KindShape, li, si, "negative start %d", tl.Items[id])
			}
		}
	}
	return replicas(p, dg)
}

// end is the completion time of flat set id: its recorded start plus
// its Stage I cycles.
func end(tl *schedule.Timeline, csr *deps.CSR, id int) int64 {
	return tl.Items[id] + csr.Cycles[id]
}

// checkDependencies walks every CSR predecessor edge and asserts the
// consumer starts no earlier than the producer's end plus the edge cost.
func checkDependencies(dg *deps.Graph, tl *schedule.Timeline, edge schedule.EdgeCostFn) error {
	csr := dg.CSR
	for li, ls := range dg.Plan.Layers {
		for si := 0; si < ls.NumSets(); si++ {
			id := int(csr.LayerOff[li]) + si
			start := tl.Items[id]
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				pid := csr.Pred[e]
				need := end(tl, csr, int(pid))
				if edge != nil {
					pl, ps := csr.Set(pid)
					need += edge(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, li)
				}
				if start < need {
					pl, ps := csr.Set(pid)
					return violation(KindDependency, li, si,
						"starts %d before predecessor L%d/S%d ready at %d", start, pl, ps, need)
				}
			}
		}
	}
	return nil
}

// span is one busy interval of a replica PE group.
type span struct {
	start, end int64
	li, si     int
}

// checkExclusivity asserts that no physical crossbar PE executes two
// sets at once: the sets of one replica PE group must not overlap
// pairwise, and replica groups that share PEs (weight virtualization
// pools) must not overlap either.
func checkExclusivity(m *mapping.Mapping, dg *deps.Graph, tl *schedule.Timeline, rep []int32) error {
	csr := dg.CSR
	// Busy intervals per (layer, replica).
	spans := make([][][]span, len(dg.Plan.Layers))
	for li, ls := range dg.Plan.Layers {
		spans[li] = make([][]span, m.Groups[li].Dup)
		for si := 0; si < ls.NumSets(); si++ {
			id := int(csr.LayerOff[li]) + si
			if csr.Cycles[id] > 0 { // zero-length sets occupy nothing
				spans[li][rep[id]] = append(spans[li][rep[id]],
					span{start: tl.Items[id], end: end(tl, csr, id), li: li, si: si})
			}
		}
	}
	for li := range spans {
		for r := range spans[li] {
			if err := sweepSpans(spans[li][r]); err != nil {
				return err
			}
		}
	}
	// Replica groups sharing any PE must be mutually exclusive over
	// time. Disjoint mappings skip this entirely; virtualized mappings
	// (layers time-sharing a swap pool) are the case that exercises it.
	owners := map[int][][2]int{} // PE index -> (layer, replica) owners
	for li, g := range m.Groups {
		for r := 0; r < g.Dup; r++ {
			for _, pe := range g.ReplicaPEs(r) {
				owners[pe] = append(owners[pe], [2]int{li, r})
			}
		}
	}
	checked := map[string]bool{}
	for _, os := range owners {
		if len(os) < 2 {
			continue
		}
		key := fmt.Sprint(os)
		if checked[key] {
			continue
		}
		checked[key] = true
		var joint []span
		for _, o := range os {
			joint = append(joint, spans[o[0]][o[1]]...)
		}
		if err := sweepSpans(joint); err != nil {
			return err
		}
	}
	return nil
}

// sweepSpans sorts busy intervals and reports the first overlap.
func sweepSpans(ss []span) error {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].start != ss[j].start {
			return ss[i].start < ss[j].start
		}
		return ss[i].end < ss[j].end
	})
	for i := 1; i < len(ss); i++ {
		if ss[i].start < ss[i-1].end {
			return violation(KindExclusivity, ss[i].li, ss[i].si,
				"overlaps L%d/S%d on the same crossbars ([%d,%d) vs [%d,%d))",
				ss[i-1].li, ss[i-1].si, ss[i].start, ss[i].end, ss[i-1].start, ss[i-1].end)
		}
	}
	return nil
}

// checkWindow asserts the policy's admission rule: no set of layer li
// starts before every layer up to li-K has completed.
func checkWindow(dg *deps.Graph, p schedule.Policy, tl *schedule.Timeline) error {
	k := p.Window()
	nl := len(dg.Plan.Layers)
	if k >= nl {
		return nil // the gate never engages
	}
	csr := dg.CSR
	layerEnd := make([]int64, nl)
	for li := range layerEnd {
		for id := int(csr.LayerOff[li]); id < int(csr.LayerOff[li+1]); id++ {
			layerEnd[li] = max(layerEnd[li], end(tl, csr, id))
		}
	}
	var gate int64 // max end over layers [0, li-k]
	for li := k; li < nl; li++ {
		gate = max(gate, layerEnd[li-k])
		for si, start := range tl.Items[csr.LayerOff[li]:csr.LayerOff[li+1]] {
			if start < gate {
				return violation(KindWindow, li, si,
					"starts %d before layers <= %d complete at %d (window %d)", start, li-k, gate, k)
			}
		}
	}
	return nil
}

// checkConservation asserts the Stage III/IV accounting: the per-layer
// and per-replica active totals recorded on the timeline match the sets'
// Stage I cycles under the policy's dispatch.
func checkConservation(dg *deps.Graph, tl *schedule.Timeline, rep []int32) error {
	csr := dg.CSR
	for li, ls := range dg.Plan.Layers {
		var layerActive int64
		replica := make([]int64, ls.Group.Dup)
		for id := int(csr.LayerOff[li]); id < int(csr.LayerOff[li+1]); id++ {
			layerActive += csr.Cycles[id]
			replica[rep[id]] += csr.Cycles[id]
		}
		if tl.LayerActive[li] != layerActive {
			return violation(KindConservation, li, -1,
				"recorded layer active %d != item total %d", tl.LayerActive[li], layerActive)
		}
		for r, a := range replica {
			if tl.ReplicaActive[li][r] != a {
				return violation(KindConservation, li, -1,
					"recorded replica %d active %d != item total %d", r, tl.ReplicaActive[li][r], a)
			}
		}
	}
	return nil
}

// lastEnd returns the latest set end of tl, a timeline over csr.
func lastEnd(tl *schedule.Timeline, csr *deps.CSR) int64 {
	var last int64
	for id := range tl.Items {
		last = max(last, end(tl, csr, id))
	}
	return last
}

// checkMakespan asserts that the recorded makespan is exactly the latest
// set end and that paper Eq. 2 utilization derived from the timeline is
// a valid fraction.
func checkMakespan(m *mapping.Mapping, dg *deps.Graph, tl *schedule.Timeline) error {
	if last := lastEnd(tl, dg.CSR); tl.Makespan != last {
		return violation(KindMakespan, -1, -1, "makespan %d != latest item end %d", tl.Makespan, last)
	}
	ut, err := metrics.Utilization(tl, m)
	if err != nil {
		return violation(KindMakespan, -1, -1, "utilization (Eq. 2): %v", err)
	}
	if ut <= 0 || ut > 1 {
		return violation(KindMakespan, -1, -1, "utilization %v outside (0, 1]", ut)
	}
	return nil
}
