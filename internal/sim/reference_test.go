package sim

// This file keeps the previous production simulator — a binary-heap
// event loop that recomputes its dispatch plan and books replica
// activity per event — as a test-only reference implementation. The
// calendar queue in sim.go reorders nothing (it preserves the exact
// (time, seq) total order the heap produced) and its deferred
// per-replica activity accounting sums to the same totals, so both
// engines must produce byte-identical results. TestSimMatchesReference checks that
// on randomized workloads; if the fast path ever diverges, this oracle
// pinpoints the first differing item.

import (
	"fmt"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
)

// refEvent is a set completion in the reference simulator.
type refEvent struct {
	time int64
	id   int32 // flat CSR set id
	seq  int64 // tie-break for determinism
}

// refQueue is the old inlined binary min-heap over (time, seq).
type refQueue []refEvent

func refLess(a, b refEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *refQueue) push(e refEvent) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !refLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *refQueue) pop() refEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && refLess(h[r], h[c]) {
			c = r
		}
		if !refLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

type refState struct {
	res  *Result
	arch cim.Config
	dg   *deps.Graph
	csr  *deps.CSR
	m    *mapping.Mapping
	edge schedule.EdgeCostFn

	depsLeft []int32
	readyAt  []int64

	disp *schedule.Dispatch
	pos  []int32
	busy []bool

	window    int
	gateOpen  []bool
	setsLeft  []int32
	layerDone []bool
	frontier  int

	queue refQueue
	seq   int64

	peCycles int64 // sum of c_i * cycles over executed sets (Eq. 2 numerator)
}

// referenceRun simulates the workload with the heap-based engine. It
// is the old sim.Run, verbatim up to renames.
func referenceRun(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, edge schedule.EdgeCostFn) (*Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if dg == nil || dg.CSR == nil {
		return nil, fmt.Errorf("sim: dependency graph has no CSR (build it with deps.Build)")
	}
	if len(dg.Plan.Layers) != len(m.Groups) {
		return nil, fmt.Errorf("sim: plan has %d layers, mapping %d groups", len(dg.Plan.Layers), len(m.Groups))
	}
	st := newRefState(arch, dg, m, p, edge)
	return st.run()
}

func newRefState(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, edge schedule.EdgeCostFn) *refState {
	csr := dg.CSR
	nl := len(dg.Plan.Layers)
	ns := csr.NumSets()
	totalReps := 0
	for li := range dg.Plan.Layers {
		totalReps += dg.Plan.Layers[li].Group.Dup
	}
	st := &refState{
		arch: arch, dg: dg, csr: csr, m: m, edge: edge,
		depsLeft:  make([]int32, ns),
		readyAt:   make([]int64, ns),
		disp:      schedule.NewDispatch(dg),
		pos:       make([]int32, totalReps),
		busy:      make([]bool, totalReps),
		window:    p.Window(),
		gateOpen:  make([]bool, nl),
		setsLeft:  make([]int32, nl),
		layerDone: make([]bool, nl),
		queue:     make(refQueue, 0, totalReps),
		res:       &Result{Timeline: schedule.NewTimeline(dg, p)},
	}
	for li, ls := range dg.Plan.Layers {
		st.setsLeft[li] = int32(ls.NumSets())
	}
	for i := 0; i < ns; i++ {
		st.depsLeft[i] = csr.PredOff[i+1] - csr.PredOff[i]
		st.res.Items[i] = -1 // not started yet
	}
	return st
}

func (st *refState) run() (*Result, error) {
	st.openGates(0)
	var now int64
	for len(st.queue) > 0 {
		e := st.queue.pop()
		now = e.time
		st.complete(e)
	}
	return st.finish(now)
}

func (st *refState) openGates(now int64) {
	nl := len(st.gateOpen)
	for {
		limit := nl
		if st.window < nl-st.frontier {
			limit = st.frontier + st.window
		}
		progressed := false
		for li := 0; li < limit; li++ {
			if st.gateOpen[li] {
				continue
			}
			st.gateOpen[li] = true
			if st.setsLeft[li] == 0 {
				st.layerDone[li] = true
				progressed = true
				continue
			}
			for rep := 0; rep < st.disp.Replicas(li); rep++ {
				st.tryStart(li, rep, now)
			}
		}
		for st.frontier < nl && st.layerDone[st.frontier] {
			st.frontier++
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

func (st *refState) chargePEs(li, rep int, cycles int64) {
	st.peCycles += int64(st.m.Groups[li].PEsPerReplica()) * cycles
	st.res.LayerActive[li] += cycles
	st.res.ReplicaActive[li][rep] += cycles
}

func (st *refState) tryStart(li, rep int, now int64) {
	g := st.disp.RepOff[li] + int32(rep)
	if !st.gateOpen[li] || st.busy[g] {
		return
	}
	next := st.disp.OrderOff[g] + st.pos[g]
	if next >= st.disp.OrderOff[g+1] {
		return
	}
	si := st.disp.Order[next]
	id := st.csr.ID(li, int(si))
	if st.depsLeft[id] > 0 {
		return
	}
	start := st.readyAt[id]
	if now > start {
		start = now
	}
	end := start + st.csr.Cycles[id]
	st.busy[g] = true
	st.res.Items[id] = start
	st.seq++
	st.queue.push(refEvent{time: end, id: id, seq: st.seq})
}

func (st *refState) complete(e refEvent) {
	li, si := st.csr.Set(e.id)
	ls := st.dg.Plan.Layers[li]
	rep := schedule.Replica(si, ls.Group.Dup)
	g := st.disp.RepOff[li] + int32(rep)
	st.chargePEs(li, rep, st.csr.Cycles[e.id])
	st.busy[g] = false
	st.pos[g]++

	sv := st.csr.Successors()
	for x := sv.Off[e.id]; x < sv.Off[e.id+1]; x++ {
		cid := sv.Succ[x]
		cl, cs := st.csr.Set(cid)
		cost := int64(0)
		if st.edge != nil {
			cost = st.edge(deps.SetRef{Layer: li, Set: si, Vol: int(sv.Vol[x])}, cl)
		}
		if t := e.time + cost; t > st.readyAt[cid] {
			st.readyAt[cid] = t
		}
		st.depsLeft[cid]--
		st.tryStart(cl, schedule.Replica(cs, st.dg.Plan.Layers[cl].Group.Dup), e.time)
	}

	st.setsLeft[li]--
	if st.setsLeft[li] == 0 {
		st.layerDone[li] = true
		if li == st.frontier {
			st.openGates(e.time)
		}
	}
	st.tryStart(li, rep, e.time)
}

func (st *refState) finish(makespan int64) (*Result, error) {
	st.res.Makespan = makespan
	for id := range st.res.Items {
		if st.res.Items[id] < 0 {
			li, si := st.csr.Set(int32(id))
			return nil, fmt.Errorf("sim: set L%d/S%d never executed (deadlock)", li, si)
		}
	}
	if makespan > 0 && st.arch.NumPEs > 0 {
		st.res.Utilization = float64(st.peCycles) / (float64(st.arch.NumPEs) * float64(makespan))
	}
	return st.res, nil
}

// compileGraph runs the Stage I–III pipeline on an already-built nn
// graph (compile in sim_test.go does the same for a registered model).
func compileGraph(t *testing.T, g *nn.Graph, extra, targetSets int) compiled {
	t.Helper()
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 256, Cols: 256})
	if err != nil {
		t.Fatal(err)
	}
	solver := mapping.SolverNone
	if extra > 0 {
		solver = mapping.SolverDP
	}
	sol, err := mapping.Solve(plan, plan.MinPEs+extra, solver)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extra)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: targetSets})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := deps.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	arch := cim.Default()
	arch.NumPEs = plan.MinPEs + extra
	return compiled{m: m, dg: dg, arch: arch}
}

// TestSimMatchesReference differentially tests the calendar-queue
// simulator against the retired binary-heap engine on randomized CNNs:
// every scheduling mode and set granularity must produce byte-identical
// timelines and identical utilization. Run under -race
// in CI it also exercises the State scratch reuse across workloads.
func TestSimMatchesReference(t *testing.T) {
	policies := []schedule.Policy{
		schedule.LayerByLayer, schedule.Windowed(4), schedule.CrossLayer,
	}
	edge := func(pred deps.SetRef, toLayer int) int64 {
		return int64(pred.Vol%7) + int64(toLayer-pred.Layer)
	}
	st := NewState() // shared across all cases: scratch reuse must not leak state
	for seed := int64(1); seed <= 6; seed++ {
		extra := 0
		if seed%2 == 0 {
			extra = 3
		}
		for _, targetSets := range []int{4, sets.FineGranularity} {
			// Canonicalize mutates the graph, so rebuild per granularity.
			g, err := models.RandomCNN(models.RandomOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cp := compileGraph(t, g, extra, targetSets)
			for _, p := range policies {
				for _, ec := range []schedule.EdgeCostFn{nil, edge} {
					name := fmt.Sprintf("seed=%d sets=%d %v edge=%v", seed, targetSets, p, ec != nil)
					want, err := referenceRun(cp.arch, cp.dg, cp.m, p, ec)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					got, err := st.Run(cp.arch, cp.dg, cp.m, p, Options{Edge: ec})
					if err != nil {
						t.Fatalf("%s: calendar: %v", name, err)
					}
					if err := check.Timeline(cp.m, cp.dg, p, got.Timeline, check.Options{EdgeCost: ec}); err != nil {
						t.Fatalf("%s: calendar timeline fails the invariant checker: %v", name, err)
					}
					if !got.Timeline.Equal(want.Timeline) {
						for i := range want.Items {
							if got.Items[i] != want.Items[i] {
								t.Fatalf("%s: item %d: calendar %+v != reference %+v",
									name, i, got.Item(i), want.Item(i))
							}
						}
						t.Fatalf("%s: timelines differ outside items (makespan %d vs %d)",
							name, got.Makespan, want.Makespan)
					}
					if got.Utilization != want.Utilization {
						t.Errorf("%s: utilization %v, reference %v", name, got.Utilization, want.Utilization)
					}

					// The coarse path must agree with the full run's scalars.
					if ec == nil {
						co, err := st.RunCoarse(cp.arch, cp.dg, cp.m, p, Options{})
						if err != nil {
							t.Fatalf("%s: coarse: %v", name, err)
						}
						if co.Makespan != want.Makespan || co.Utilization != want.Utilization {
							t.Errorf("%s: coarse %+v, reference makespan=%d util=%v",
								name, co, want.Makespan, want.Utilization)
						}
					}
				}
			}
		}
	}
}
