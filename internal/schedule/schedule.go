// Package schedule implements Stages III and IV of CLSA-CIM (paper
// §IV-3/4), the layer-by-layer baseline of §II-B, and the bounded
// cross-layer family interpolating between them.
//
// Stage III fixes the intra-layer order of each base layer's OFM sets:
// sets execute in raster order (resource dependency — the same crossbars
// compute consecutive sets, so they serialize on their PE group).
//
// With weight duplication a layer owns d_i identical replica PE groups;
// its sets are dispatched to the replicas round-robin, preserving the
// raster emission order at d_i-fold throughput ("the input vectors are
// evenly distributed among the duplicates", paper §III-C). Sets on the
// same replica serialize; sets on different replicas may overlap.
//
// Stage IV computes the earliest feasible start of every set: a set
// starts as soon as its replica has finished its previous set, every
// predecessor set it depends on (Stage II) is complete, and the
// policy's admission window permits the layer — partial OFMs flow to
// successor layers before the full OFM exists, which is what raises PE
// utilization.
//
// Every strategy is one Policy value, which is one admission window
// (see policy.go): "lbl" (window 1, strictly sequential layers, paper
// Fig. 1(c) and Fig. 6a), "xinf" (unbounded window, Fig. 6b), and the
// bounded "xK" family in between. Stage III dispatch is the same for
// all of them (Replica). One scheduler loop over the dependency
// graph's CSR arrays serves them all.
package schedule

import (
	"fmt"
	"sync"

	"clsacim/internal/deps"
)

// EdgeCostFn returns extra latency (cycles) charged on a dependency edge
// from predecessor set pred to a set of layer toLayer — the hook for the
// NoC and GPEU cost extensions. A nil function means the paper's
// idealized zero-cost data movement.
type EdgeCostFn func(pred deps.SetRef, toLayer int) int64

// Options configures scheduling.
type Options struct {
	EdgeCost EdgeCostFn
}

// Schedule computes the execution timeline of dg under policy p: list
// scheduling over the set DAG's CSR arrays, processing layers in
// topological (plan) order so every dependency's finish time is known
// when a set is placed. The policy's admission window gates each layer
// on the completion of every layer Window positions back, which
// serializes layers entirely at window 1 and imposes nothing at
// Unbounded.
func Schedule(dg *deps.Graph, p Policy, opt Options) (*Timeline, error) {
	if err := checkInputs(dg); err != nil {
		return nil, err
	}
	t := NewTimeline(dg, p)
	s := scratchPool.Get().(*Scratch)
	t.Makespan = s.run(dg, nil, p, opt.EdgeCost, t)
	scratchPool.Put(s)
	return t, nil
}

// Scratch is the reusable working memory of the Stage IV list
// scheduler: the finish time of every flat set, the per-replica ready
// times of the layer being placed, and the admission window's prefix
// maxima. It grows to the largest workload it has scheduled and is
// reset, not reallocated, across runs. A Scratch is not safe for
// concurrent use; the zero value is ready to use.
type Scratch struct {
	end       []int64
	ready     []int64
	prefixEnd []int64
}

// scratchPool recycles Schedule's working memory, so a steady stream
// of schedules allocates only the Timelines it returns.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Makespan is the makespan-only pass of Schedule: the same list
// scheduling loop, with layer li running on dup[li] replica PE groups
// instead of the plan's Group.Dup, and no Timeline materialized. The
// dependency graph depends on duplication only through each layer's
// Stage I set target (sets.LayerTarget), so one graph prices every
// duplication vector with the same per-layer targets — the scored
// duplication solver's cost model. Once s has scheduled a workload of
// this size, Makespan does not allocate.
func (s *Scratch) Makespan(dg *deps.Graph, dup []int, p Policy, edge EdgeCostFn) (int64, error) {
	if err := checkInputs(dg); err != nil {
		return 0, err
	}
	if len(dup) != len(dg.Plan.Layers) {
		return 0, fmt.Errorf("schedule: duplication vector has %d entries, plan %d", len(dup), len(dg.Plan.Layers))
	}
	for li, d := range dup {
		if d < 1 {
			return 0, fmt.Errorf("schedule: layer %d duplication %d < 1", li, d)
		}
	}
	return s.run(dg, dup, p, edge, nil), nil
}

func checkInputs(dg *deps.Graph) error {
	if dg == nil || dg.CSR == nil {
		return fmt.Errorf("schedule: dependency graph has no CSR (build it with deps.Build)")
	}
	return nil
}

// run is the Stage IV recursion shared by Schedule and Makespan. Layer
// li has dup[li] replicas (the plan's Group.Dup when dup is nil). When
// t is non-nil every set's start and the activity counters are
// recorded into it; the makespan is returned either way.
func (s *Scratch) run(dg *deps.Graph, dup []int, p Policy, edge EdgeCostFn, t *Timeline) int64 {
	csr := dg.CSR
	k := p.Window()
	nl := len(dg.Plan.Layers)
	s.end = grow(s.end, csr.NumSets())
	end := s.end
	// prefixEnd[i] is the max end over layers [0, i): the admission
	// gate of layer li is prefixEnd[li-k+1].
	s.prefixEnd = grow(s.prefixEnd, nl+1)
	prefixEnd := s.prefixEnd
	prefixEnd[0] = 0
	// At window 1 with idealized edges every predecessor (always in an
	// earlier layer) finishes no later than the gate, so the dependency
	// scan is provably redundant.
	skipDeps := k == 1 && edge == nil
	var makespan int64
	for li, ls := range dg.Plan.Layers {
		d := ls.Group.Dup
		if dup != nil {
			d = dup[li]
		}
		var gate int64
		if k < nl && li >= k {
			gate = prefixEnd[li-k+1]
		}
		s.ready = grow(s.ready, d)
		ready := s.ready
		for i := range ready {
			ready[i] = gate
		}
		base := int(csr.LayerOff[li])
		var active []int64
		if t != nil {
			active = t.ReplicaActive[li]
		}
		var layerEnd, layerActive int64
		for si := 0; si < ls.NumSets(); si++ {
			id := base + si
			r := Replica(si, d)
			start := ready[r]
			for e := csr.PredOff[id]; !skipDeps && e < csr.PredOff[id+1]; e++ {
				pid := csr.Pred[e]
				pt := end[pid]
				if edge != nil {
					pl, ps := csr.Set(pid)
					pt += edge(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, li)
				}
				if pt > start {
					start = pt
				}
			}
			c := csr.Cycles[id]
			fin := start + c
			if !skipDeps {
				end[id] = fin
			}
			ready[r] = fin
			if t != nil {
				t.Items[id] = start
				active[r] += c
				layerActive += c
			}
			if fin > layerEnd {
				layerEnd = fin
			}
		}
		if t != nil {
			t.LayerActive[li] = layerActive
		}
		prefixEnd[li+1] = prefixEnd[li]
		if layerEnd > prefixEnd[li+1] {
			prefixEnd[li+1] = layerEnd
		}
		if layerEnd > makespan {
			makespan = layerEnd
		}
	}
	return makespan
}

// grow returns b resized to n, reallocating only when it is too small.
// The contents are not cleared: run writes every entry before reading
// it.
func grow(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

// LayerByLayerVirtual schedules a weight-virtualized mapping (paper
// §V-C future work, see mapping.SolveVirtual): layers execute strictly
// sequentially, and before every swapped layer its reload time is
// charged while the swap-pool PEs are being programmed. reload[i] is the
// per-layer programming cost (0 for resident layers). Reload time counts
// toward the makespan but not toward active (computing) cycles, so it
// depresses Eq. 2 utilization exactly as real crossbar writes would.
func LayerByLayerVirtual(dg *deps.Graph, reload []int64) (*Timeline, error) {
	if len(reload) != len(dg.Plan.Layers) {
		return nil, fmt.Errorf("schedule: reload vector has %d entries, plan %d",
			len(reload), len(dg.Plan.Layers))
	}
	csr := dg.CSR
	t := NewTimeline(dg, LayerByLayer)
	var cur int64
	for li, ls := range dg.Plan.Layers {
		cur += reload[li]
		base := int(csr.LayerOff[li])
		for si := 0; si < ls.NumSets(); si++ {
			c := csr.Cycles[base+si]
			t.Items[base+si] = cur
			cur += c
			t.LayerActive[li] += c
			t.ReplicaActive[li][Replica(si, ls.Group.Dup)] += c
		}
	}
	t.Makespan = cur
	return t, nil
}
