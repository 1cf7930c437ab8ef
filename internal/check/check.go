// Package check is an independent invariant checker for execution
// timelines: given a compiled workload (mapping + dependency graph) and
// the policy a timeline claims to follow, Timeline re-derives every
// property a legal CLSA-CIM execution must satisfy and reports the first
// violation as a typed error.
//
// The checker is deliberately separate from the machinery that produces
// timelines: it shares no code with the Stage IV list scheduler
// (package schedule) or the event-driven simulator (package sim), so a
// bug in either engine cannot also hide in the oracle that judges it.
// Both engines run it behind a debug option, the public Engine exposes
// it through clsacim.WithValidation, and the differential fuzz harness
// (FuzzScheduleVsSim) drives it over randomized models.
//
// The invariant set:
//
//   - Shape: one item per Stage I set, carrying its own (layer, set)
//     coordinates, a replica inside the layer's duplication range, and
//     non-negative times.
//   - Dependency order: every CSR dependency edge is respected — a set
//     starts only after each predecessor set has completed, plus the
//     configured edge cost (NoC/GPEU).
//   - Crossbar exclusivity: no physical PE executes two sets at once.
//     Sets of the same replica PE group must serialize, and groups that
//     share PEs (weight virtualization) must never overlap in time.
//   - Window admission: under a window-K policy no set of layer l starts
//     before every layer up to l-K has fully completed.
//   - Conservation (Stage III/IV accounting): each set runs for exactly
//     its Stage I cycle count, per-layer and per-replica active-cycle
//     totals match the items, and the total active time equals the
//     plan's total work.
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
	if len(tl.Items) != csr.NumSets() {
		return violation(KindShape, -1, -1, "%d items, plan has %d sets", len(tl.Items), csr.NumSets())
	}
	if err := checkShape(m, dg, tl); err != nil {
		return err
	}
	if err := checkDependencies(dg, tl, opt.EdgeCost); err != nil {
		return err
	}
	if err := checkExclusivity(m, dg, tl); err != nil {
		return err
	}
	if err := checkWindow(dg, p, tl); err != nil {
		return err
	}
	if err := checkConservation(dg, tl); err != nil {
		return err
	}
	return checkMakespan(m, tl)
}

// checkShape verifies that every item sits at its CSR position, names
// itself correctly, runs on a replica the layer actually has, and keeps
// sane times.
func checkShape(m *mapping.Mapping, dg *deps.Graph, tl *schedule.Timeline) error {
	csr := dg.CSR
	for li, ls := range dg.Plan.Layers {
		if int(tl.Off[li]) != int(csr.LayerOff[li]) {
			return violation(KindShape, li, -1, "layer offset %d != CSR offset %d", tl.Off[li], csr.LayerOff[li])
		}
		d := m.Groups[li].Dup
		if d != ls.Group.Dup {
			return violation(KindShape, li, -1, "mapping duplication %d != plan duplication %d", d, ls.Group.Dup)
		}
		if len(tl.ReplicaActive[li]) != d {
			return violation(KindShape, li, -1,
				"replica accounting has %d rows, layer has %d replicas", len(tl.ReplicaActive[li]), d)
		}
		for si := 0; si < ls.NumSets(); si++ {
			it := tl.Items[int(csr.LayerOff[li])+si]
			if it.Layer != li || it.Set != si {
				return violation(KindShape, li, si, "item labeled L%d/S%d", it.Layer, it.Set)
			}
			if it.Replica < 0 || it.Replica >= d {
				return violation(KindShape, li, si, "replica %d outside [0, %d)", it.Replica, d)
			}
			if it.Start < 0 || it.End < it.Start {
				return violation(KindShape, li, si, "times [%d, %d) not ordered", it.Start, it.End)
			}
		}
	}
	return nil
}

// checkDependencies walks every CSR predecessor edge and asserts the
// consumer starts no earlier than the producer's end plus the edge cost.
func checkDependencies(dg *deps.Graph, tl *schedule.Timeline, edge schedule.EdgeCostFn) error {
	csr := dg.CSR
	for id := 0; id < csr.NumSets(); id++ {
		it := tl.Items[id]
		for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
			pid := csr.Pred[e]
			need := tl.Items[pid].End
			if edge != nil {
				pl, ps := csr.Set(pid)
				need += edge(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, it.Layer)
			}
			if it.Start < need {
				pl, ps := csr.Set(pid)
				return violation(KindDependency, it.Layer, it.Set,
					"starts %d before predecessor L%d/S%d ready at %d", it.Start, pl, ps, need)
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
// sets at once: the items of one replica PE group must not overlap
// pairwise, and replica groups that share PEs (weight virtualization
// pools) must not overlap either.
func checkExclusivity(m *mapping.Mapping, dg *deps.Graph, tl *schedule.Timeline) error {
	nl := len(dg.Plan.Layers)
	// Busy intervals per (layer, replica).
	spans := make([][][]span, nl)
	for li := range dg.Plan.Layers {
		spans[li] = make([][]span, m.Groups[li].Dup)
	}
	for _, it := range tl.Items {
		if it.End > it.Start { // zero-length sets occupy nothing
			spans[it.Layer][it.Replica] = append(spans[it.Layer][it.Replica],
				span{start: it.Start, end: it.End, li: it.Layer, si: it.Set})
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
	layerEnd := make([]int64, nl)
	for _, it := range tl.Items {
		if it.End > layerEnd[it.Layer] {
			layerEnd[it.Layer] = it.End
		}
	}
	var gate int64 // max end over layers [0, li-k]
	for li := k; li < nl; li++ {
		if e := layerEnd[li-k]; e > gate {
			gate = e
		}
		for _, it := range tl.ItemsOf(li) {
			if it.Start < gate {
				return violation(KindWindow, li, it.Set,
					"starts %d before layers <= %d complete at %d (window %d)", it.Start, li-k, gate, k)
			}
		}
	}
	return nil
}

// checkConservation asserts the Stage III/IV accounting: every set runs
// for exactly its Stage I cycle count, and the per-layer / per-replica
// active totals recorded on the timeline match the items.
func checkConservation(dg *deps.Graph, tl *schedule.Timeline) error {
	csr := dg.CSR
	for li, ls := range dg.Plan.Layers {
		var layerActive int64
		replica := make([]int64, ls.Group.Dup)
		for si := 0; si < ls.NumSets(); si++ {
			id := int(csr.LayerOff[li]) + si
			it := tl.Items[id]
			if got, want := it.End-it.Start, csr.Cycles[id]; got != want {
				return violation(KindConservation, li, si, "duration %d != %d Stage I cycles", got, want)
			}
			layerActive += it.End - it.Start
			replica[it.Replica] += it.End - it.Start
		}
		// Per-item durations equal the Stage I cycle counts (checked
		// above), so layerActive is also the layer's total work; the
		// recorded accounting must match it.
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

// checkMakespan asserts that the recorded makespan is exactly the latest
// item end and that paper Eq. 2 utilization derived from the timeline is
// a valid fraction.
func checkMakespan(m *mapping.Mapping, tl *schedule.Timeline) error {
	var last int64
	for _, it := range tl.Items {
		if it.End > last {
			last = it.End
		}
	}
	if tl.Makespan != last {
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
