package check

import (
	"fmt"
	"sort"

	"clsacim/internal/deps"
	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
)

// The stream-specific invariant classes (see Stream).
const (
	// KindArrival: an inference executed work before its arrival time.
	KindArrival Kind = "arrival"
	// KindGate: the inter-inference admission gate was violated — an
	// inference started while more than MaxInFlight earlier inferences
	// of its model were still incomplete.
	KindGate Kind = "gate"
)

// StreamModel is one model class sharing the fabric in a streamed
// execution: its compiled workload, the policy every inference of the
// class was scheduled under, and where its PE indices sit in the global
// fabric (PEBase). Two classes whose PE ranges overlap (shared crossbar
// pools) must be mutually exclusive in time wherever they share a
// physical PE.
type StreamModel struct {
	Graph   *deps.Graph
	Mapping *mapping.Mapping
	Policy  schedule.Policy
	// Edge is the dependency-edge cost the timelines were scheduled
	// under (nil = idealized).
	Edge schedule.EdgeCostFn
	// PEBase offsets the mapping's PE indices into the global fabric.
	PEBase int
}

// StreamInference is one scheduled inference of a stream: which model
// class it instantiates, when it arrived, and its executed timeline in
// absolute stream time (item times share one clock across all
// inferences).
type StreamInference struct {
	Model    int
	Arrival  int64
	Timeline *schedule.Timeline
}

// StreamOptions configures the stream checker.
type StreamOptions struct {
	// MaxInFlight is the inter-inference admission gate the stream was
	// scheduled under: inference j of a model (in per-model issue
	// order) may not start before inference j-MaxInFlight of the same
	// model has fully completed. 0 means no gate.
	MaxInFlight int
}

// Stream asserts the invariant set of a streamed multi-inference
// execution: every per-inference timeline individually satisfies the
// full single-inference invariant set (dependency order over the CSR,
// replica exclusivity, window admission, Stage III/IV cycle
// conservation, makespan consistency), and across inferences
//
//   - no inference executes a set before its arrival time,
//   - replica PE groups that share a physical crossbar — the same
//     group instantiated by concurrent inferences of one model, or
//     overlapping groups of different models on a shared pool — never
//     execute two sets at once, and
//   - the inter-inference admission gate holds (see StreamOptions).
//
// It returns nil for a legal stream and a *Violation describing the
// first broken invariant otherwise. Like Timeline, the checker shares
// no code with the stream scheduler that produces these executions.
func Stream(models []StreamModel, infs []StreamInference, opt StreamOptions) error {
	if len(models) == 0 {
		return violation(KindShape, -1, -1, "stream has no models")
	}
	for mi, m := range models {
		if m.Graph == nil || m.Graph.CSR == nil || m.Mapping == nil {
			return violation(KindShape, -1, -1, "model %d has a nil graph, CSR, or mapping", mi)
		}
		if m.PEBase < 0 {
			return violation(KindShape, -1, -1, "model %d has negative PE base %d", mi, m.PEBase)
		}
	}
	for ji, inf := range infs {
		if inf.Model < 0 || inf.Model >= len(models) {
			return violation(KindShape, -1, -1, "inference %d names model %d of %d", ji, inf.Model, len(models))
		}
		if inf.Arrival < 0 {
			return violation(KindShape, -1, -1, "inference %d has negative arrival %d", ji, inf.Arrival)
		}
		if inf.Timeline == nil {
			return violation(KindShape, -1, -1, "inference %d has no timeline", ji)
		}
		m := models[inf.Model]
		if err := Timeline(m.Mapping, m.Graph, m.Policy, inf.Timeline, Options{EdgeCost: m.Edge}); err != nil {
			return fmt.Errorf("check: inference %d (model %d): %w", ji, inf.Model, err)
		}
		for id, start := range inf.Timeline.Items {
			if start < inf.Arrival {
				li, si := m.Graph.CSR.Set(int32(id))
				return &Violation{Kind: KindArrival, Layer: li, Set: si,
					Msg: fmt.Sprintf("inference %d starts %d before its arrival %d", ji, start, inf.Arrival)}
			}
		}
	}
	if err := checkStreamExclusivity(models, infs); err != nil {
		return err
	}
	return checkStreamGate(models, infs, opt.MaxInFlight)
}

// checkStreamExclusivity asserts per-crossbar mutual exclusion across
// all inferences of the stream: the busy intervals of every replica PE
// group — aggregated over the inferences instantiating it — must not
// overlap, and neither may groups of different models that share a
// physical PE on a common pool.
func checkStreamExclusivity(models []StreamModel, infs []StreamInference) error {
	// Number the replica PE groups globally: group id = grpBase[model]
	// + local replica index (layer-major, as in the single-timeline
	// checker). grp[mi][id] is the global group executing flat set id of
	// model mi under the model's dispatch.
	grpBase := make([]int, len(models)+1)
	grp := make([][]int32, len(models))
	for mi, m := range models {
		rep := replicas(m.Graph)
		csr := m.Graph.CSR
		gid := grpBase[mi]
		for li, g := range m.Mapping.Groups {
			for id := csr.LayerOff[li]; id < csr.LayerOff[li+1]; id++ {
				rep[id] += int32(gid)
			}
			gid += g.Dup
		}
		grp[mi] = rep
		grpBase[mi+1] = gid
	}
	spans := make([][]span, grpBase[len(models)])
	for _, inf := range infs {
		csr := models[inf.Model].Graph.CSR
		g := grp[inf.Model]
		for li := 0; li < csr.NumLayers(); li++ {
			for id := int(csr.LayerOff[li]); id < int(csr.LayerOff[li+1]); id++ {
				if csr.Cycles[id] > 0 {
					spans[g[id]] = append(spans[g[id]], span{start: inf.Timeline.Items[id],
						end: end(inf.Timeline, csr, id), li: li, si: id - int(csr.LayerOff[li])})
				}
			}
		}
	}
	// Each group serializes across the inferences sharing it.
	for _, ss := range spans {
		if err := sweepSpans(ss); err != nil {
			return err
		}
	}
	// Groups sharing any physical PE (cross-model pools) must be
	// mutually exclusive as a whole.
	owners := map[int][]int{} // global PE index -> group ids
	for mi, m := range models {
		gid := grpBase[mi]
		for _, g := range m.Mapping.Groups {
			for r := 0; r < g.Dup; r++ {
				for _, pe := range g.ReplicaPEs(r) {
					owners[m.PEBase+pe] = append(owners[m.PEBase+pe], gid)
				}
				gid++
			}
		}
	}
	checked := map[string]bool{}
	// Deterministic iteration keeps the first reported violation stable.
	pes := make([]int, 0, len(owners))
	for pe := range owners {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		os := owners[pe]
		if len(os) < 2 {
			continue
		}
		key := fmt.Sprint(os)
		if checked[key] {
			continue
		}
		checked[key] = true
		var joint []span
		for _, gid := range os {
			joint = append(joint, spans[gid]...)
		}
		if err := sweepSpans(joint); err != nil {
			return err
		}
	}
	return nil
}

// checkStreamGate asserts the inter-inference admission rule: with a
// gate of G, inference j of a model (per-model issue order) starts only
// after inference j-G of the same model has fully completed.
func checkStreamGate(models []StreamModel, infs []StreamInference, gate int) error {
	if gate <= 0 {
		return nil
	}
	perModel := make([][]int, len(models))
	for ji, inf := range infs {
		perModel[inf.Model] = append(perModel[inf.Model], ji)
	}
	for _, jobs := range perModel {
		for jm, ji := range jobs {
			if jm < gate {
				continue
			}
			csr := models[infs[ji].Model].Graph.CSR
			prevEnd := lastEnd(infs[jobs[jm-gate]].Timeline, csr)
			for id, start := range infs[ji].Timeline.Items {
				if start < prevEnd {
					li, si := csr.Set(int32(id))
					return &Violation{Kind: KindGate, Layer: li, Set: si,
						Msg: fmt.Sprintf("inference %d starts %d before inference %d complete at %d (gate %d)",
							ji, start, jobs[jm-gate], prevEnd, gate)}
				}
			}
		}
	}
	return nil
}
