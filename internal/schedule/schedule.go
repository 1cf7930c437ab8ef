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
	"math"
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
	// Reload[li] delays layer li's admission gate by the cycles that
	// reprogram its crossbars before it runs: the swap time of a
	// weight-virtualized mapping (mapping.SolveVirtual), charged to the
	// makespan but not to any replica's busy cycles. Nil charges
	// nothing; otherwise it has one entry per layer.
	Reload []int64
}

// Schedule computes the execution timeline of dg under policy p: list
// scheduling over the set DAG's CSR arrays, processing layers in
// topological (plan) order so every dependency's finish time is known
// when a set is placed. The policy's admission window gates each layer
// on the completion of every layer Window positions back, which
// serializes layers entirely at window 1 and imposes nothing at
// Unbounded.
func Schedule(dg *deps.Graph, p Policy, opt Options) (*Timeline, error) {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	return s.schedule(dg, p, opt)
}

// schedule is Schedule on s's working memory: once s has scheduled a
// workload of this size, it allocates only the returned Timeline.
func (s *Scratch) schedule(dg *deps.Graph, p Policy, opt Options) (*Timeline, error) {
	if err := checkInputs(dg, opt); err != nil {
		return nil, err
	}
	t := NewTimeline(dg, p)
	t.Makespan = s.run(dg.CSR, dg, nil, p, opt, 0, t)
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
	// free is the unconsumed rest of Job's replica free times while Job
	// runs, nil otherwise.
	free []int64
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
func (s *Scratch) Makespan(dg *deps.Graph, dup []int, p Policy, opt Options) (int64, error) {
	if err := checkInputs(dg, opt); err != nil {
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
	return s.run(dg.CSR, dg, dup, p, opt, 0, nil), nil
}

// Job schedules one inference of a stream of back-to-back inferences
// of dg on replica groups that serve nothing else: the Stage IV
// recurrence with two more terms per set, the job's release (no set
// starts before it) and its replica's free time left by the previous
// inference. free[g] is the free time of replica group g, numbered
// layer-major (layer li's Group.Dup groups follow layer li-1's), and
// group r of a layer runs the sets Replica assigns it; Job reads free
// and leaves each group's last finish there for the next inference.
// Job returns the job's earliest start and last finish. When t is
// non-nil, a timeline shaped after dg (NewTimeline) that may be reused
// across jobs, Job also overwrites its starts and makespan with the
// job's; its activity rows need no update, since every job keeps each
// replica busy for the same cycles (deps.Graph.Activity). With a nil t
// a warm Scratch schedules the job without allocating.
//
// Scheduling a stream's jobs one after another in issue order is exact
// when every replica group serves its jobs FIFO in issue order and
// shares no PE with another group: no resource is then ever
// arbitrated, so each set's start is the max-plus recurrence above.
//
// With a nil edge, Job scans dg's dominant-predecessor view
// (deps.Graph.Dominant) instead of the full CSR: of a set's
// predecessors on one replica of one layer, the last in raster order
// finishes last, because the replica runs them in that order, so the
// others never bind. That holds only for zero-cost edges and for the
// plan's own duplication, which is what Job schedules.
func (s *Scratch) Job(dg *deps.Graph, p Policy, edge EdgeCostFn, release int64, free []int64, t *Timeline) (start, end int64, err error) {
	opt := Options{EdgeCost: edge}
	if err := checkInputs(dg, opt); err != nil {
		return 0, 0, err
	}
	reps := 0
	for _, ls := range dg.Plan.Layers {
		reps += ls.Group.Dup
	}
	if len(free) != reps {
		return 0, 0, fmt.Errorf("schedule: %d replica free times, plan has %d replica groups", len(free), reps)
	}
	if t != nil && len(t.Items) != dg.CSR.NumSets() {
		return 0, 0, fmt.Errorf("schedule: job timeline is not shaped after the dependency graph")
	}
	csr := dg.CSR
	if edge == nil {
		csr = dg.Dominant()
	}
	s.free = free
	end = s.run(csr, dg, nil, p, opt, release, t)
	s.free = nil
	if t != nil {
		t.Makespan = end
	}
	// A replica runs its sets in raster order, so a layer's earliest
	// start is among its first Group.Dup sets; run leaves every set's
	// finish in s.end.
	start = math.MaxInt64
	for li, ls := range dg.Plan.Layers {
		first := int(csr.LayerOff[li])
		for id := first; id < first+min(ls.NumSets(), ls.Group.Dup); id++ {
			start = min(start, s.end[id]-csr.Cycles[id])
		}
	}
	return start, end, nil
}

func checkInputs(dg *deps.Graph, opt Options) error {
	if dg == nil || dg.CSR == nil {
		return fmt.Errorf("schedule: dependency graph has no CSR (build it with deps.Build)")
	}
	if opt.Reload != nil && len(opt.Reload) != len(dg.Plan.Layers) {
		return fmt.Errorf("schedule: reload vector has %d entries, plan %d", len(opt.Reload), len(dg.Plan.Layers))
	}
	return nil
}

// run is the Stage IV recursion shared by Schedule, Makespan and Job,
// over csr: dg's CSR, or its dominant view (Job with a nil edge).
// Layer li has dup[li] replicas (the plan's Group.Dup when dup is nil).
// No set starts before release, and each replica's sets start no
// earlier than its ready time from layerReady. A layer's gate opens
// opt.Reload[li] cycles late; with one replica per layer and window 1,
// as under weight virtualization, that runs the layers back to back
// with each reload in front of its layer. Every set's finish is left in
// s.end (outside Job, only where a dependency scan ran). When t is
// non-nil every set's start is recorded into it; the makespan is
// returned either way.
func (s *Scratch) run(csr *deps.CSR, dg *deps.Graph, dup []int, p Policy, opt Options, release int64, t *Timeline) int64 {
	edge := opt.EdgeCost
	k := p.Window()
	nl := len(dg.Plan.Layers)
	s.end = grow(s.end, csr.NumSets())
	end := s.end
	// prefixEnd[i] is the max end over layers [0, i), and at least the
	// release: the admission gate of layer li is prefixEnd[li-k+1].
	s.prefixEnd = grow(s.prefixEnd, nl+1)
	prefixEnd := s.prefixEnd
	prefixEnd[0] = release
	// At window 1 with idealized edges every predecessor (always in an
	// earlier layer) finishes no later than the gate, so the dependency
	// scan is provably redundant, and so are the finishes it reads. Job
	// reads the finishes afterwards, so it keeps both.
	skipDeps := k == 1 && edge == nil && s.free == nil
	var makespan int64
	for li, ls := range dg.Plan.Layers {
		d := ls.Group.Dup
		if dup != nil {
			d = dup[li]
		}
		gate := prefixEnd[0]
		if k < nl && li >= k {
			gate = prefixEnd[li-k+1]
		}
		if opt.Reload != nil {
			gate += opt.Reload[li]
		}
		ready := s.layerReady(d, gate)
		var layerEnd int64
		// Set si of the layer runs on replica r = Replica(si, d): the
		// replicas take the sets in turn.
		for id, r := int(csr.LayerOff[li]), 0; id < int(csr.LayerOff[li+1]); id, r = id+1, r+1 {
			if r == d {
				r = 0
			}
			start := ready[r]
			switch {
			case skipDeps:
			case edge == nil:
				for _, pid := range csr.Pred[csr.PredOff[id]:csr.PredOff[id+1]] {
					start = max(start, end[pid])
				}
			default:
				for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
					pid := csr.Pred[e]
					pl, ps := csr.Set(pid)
					start = max(start, end[pid]+edge(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, li))
				}
			}
			fin := start + csr.Cycles[id]
			if !skipDeps {
				end[id] = fin
			}
			ready[r] = fin
			if t != nil {
				t.Items[id] = start
			}
			if fin > layerEnd {
				layerEnd = fin
			}
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

// layerReady returns the ready times of the next layer's d replicas,
// none earlier than gate. Outside Job every replica is free from the
// start; inside, the layer's replicas are the next d entries of the
// caller's free times, which receive the replicas' finishes.
func (s *Scratch) layerReady(d int, gate int64) []int64 {
	if s.free == nil {
		s.ready = grow(s.ready, d)
		for i := range s.ready {
			s.ready[i] = gate
		}
		return s.ready
	}
	ready := s.free[:d]
	s.free = s.free[d:]
	for i, f := range ready {
		ready[i] = max(f, gate)
	}
	return ready
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
