// Package sim is a discrete-event system-level simulator for tiled CIM
// architectures executing CLSA-CIM workloads — the "custom system-level
// simulator" of paper §V. It executes the set-level workload on explicit
// replica PE-group resources with an event queue, independently of the
// analytic scheduler in package schedule; tests assert that both produce
// identical timelines, which cross-validates the Stage IV recursion.
// That differential is the package's job: the library schedules with
// package schedule and derives per-PE activity and the buffer peak from
// the timeline (package metrics), so sim is the timing oracle of the
// tests and the scorer of the end-to-end benchmark's traced replay.
//
// The simulator consumes the same CSR dependency arrays as the
// scheduler and returns the same schedule.Timeline, so the two engines
// differ only in mechanism (event queue vs list scheduling), never in
// data model. Every schedule.Policy is supported: the policy's
// admission window is simulated as a gate that opens a layer only once
// every layer Window positions back has completed.
//
// A State holds every scratch array plus a bucketed calendar queue
// (internal/eventq) and is reset, not reallocated, across runs. It keeps
// the Stage III dispatch plan (schedule.Dispatch) of its last run and
// reuses it while the graph and the policy name stay the same, so
// re-running one workload allocates only the returned Timeline, and
// RunCoarse, which skips per-set Timeline materialization, allocates
// nothing beyond the name of a bounded-window policy (the plan key). The previous binary-heap loop survives as the reference
// implementation in reference_test.go, with a differential test pinning
// byte-identical timelines.
package sim

import (
	"fmt"

	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/eventq"
	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
)

// Result is the outcome of one simulation: the executed Timeline (the
// same representation the analytic scheduler returns) and its Eq. 2
// utilization.
type Result struct {
	*schedule.Timeline
	// Utilization is paper Eq. 2 over the architecture's NumPEs.
	Utilization float64
}

// Coarse is the outcome of a coarse run: the scalar metrics without the
// per-set timeline. It is returned by value, so a warm State yields it
// without allocating.
type Coarse struct {
	Makespan    int64
	Utilization float64
}

// Options configures a simulation run.
type Options struct {
	// Edge is the optional dependency-edge cost (NoC hops, GPEU
	// processing); nil means the paper's idealized zero-cost movement.
	Edge schedule.EdgeCostFn
	// Debug runs the engine-independent invariant checker
	// (check.Timeline) on the simulated timeline before it is returned:
	// dependency order, crossbar exclusivity, window admission,
	// conservation, and makespan consistency. A violation means a
	// simulator bug and is returned as the run's error.
	Debug bool
}

// Run simulates the workload dg on architecture arch with mapping m
// under scheduling policy p. edge is the optional dependency-edge cost
// (NoC hops, GPEU processing); nil means idealized.
func Run(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, edge schedule.EdgeCostFn) (*Result, error) {
	return RunOpt(arch, dg, m, p, Options{Edge: edge})
}

// RunOpt is Run with full Options (edge cost plus debug validation). It
// allocates a fresh State per call; callers simulating one compilation
// repeatedly should hold a State and call State.Run.
func RunOpt(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (*Result, error) {
	return NewState().Run(arch, dg, m, p, opt)
}

// State holds the simulator's reusable scratch: per-set counters,
// per-replica cursors, window state, the calendar event queue, and the
// plan of the last workload. A State is reset — not reallocated —
// across runs, so re-simulating one workload allocates only the
// returned Timeline (and nothing at all on the coarse path). A State is
// not safe for concurrent use.
type State struct {
	// Per-workload cache, keyed by dependency-graph identity and policy
	// name: the Stage III dispatch plan and the longest set duration
	// (the calendar queue's increment bound).
	planFor    *deps.Graph
	planPolicy string
	disp       *schedule.Dispatch
	maxCycles  int64

	depsLeft []int32 // unmet dependency count per flat set
	readyAt  []int64 // max dependency completion (+edge cost) per flat set
	pos      []int32 // completed-set cursor per global replica group
	busy     []bool  // per global replica group
	repAct   []int64 // busy cycles per global replica group

	// Admission window: layer li may start only once every layer up to
	// li-K is complete. gateOpen marks admitted layers; frontier is the
	// first incomplete layer (all layers below it are done).
	gateOpen  []bool
	setsLeft  []int32
	layerDone []bool

	queue eventq.Queue[int32]

	// Per-run fields.
	arch     cim.Config
	dg       *deps.Graph
	csr      *deps.CSR
	succ     *deps.SuccView // csr.Successors(), fetched once per run
	m        *mapping.Mapping
	p        schedule.Policy
	edge     schedule.EdgeCostFn
	starts   []int64 // per-set start cycles; nil on the coarse path
	window   int
	frontier int
	seq      int64
	done     int // completed sets
}

// NewState returns an empty State ready for its first run.
func NewState() *State { return &State{} }

// Run simulates the workload and returns the full Result (timeline and
// utilization). The State's scratch is reused; the returned Result owns
// fresh memory and survives later runs.
func (st *State) Run(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (*Result, error) {
	if err := st.prepare(arch, dg, m, p, opt); err != nil {
		return nil, err
	}
	res := &Result{Timeline: schedule.NewTimeline(dg, p)}
	st.starts = res.Items
	makespan, err := st.loop()
	if err != nil {
		return nil, err
	}
	res.Makespan = makespan
	var sum int64
	for li, g := range m.Groups {
		var layer int64
		row := res.ReplicaActive[li]
		base := st.disp.RepOff[li]
		for r := range row {
			row[r] = st.repAct[base+int32(r)]
			layer += row[r]
		}
		res.LayerActive[li] = layer
		sum += int64(g.PEsPerReplica()) * layer
	}
	res.Utilization = st.utilization(sum, makespan)
	if opt.Debug {
		if err := check.Timeline(m, dg, p, res.Timeline, check.Options{EdgeCost: opt.Edge}); err != nil {
			return nil, fmt.Errorf("sim: debug validation: %w", err)
		}
	}
	return res, nil
}

// RunCoarse simulates the workload without materializing per-set
// timeline items: only the makespan and the Eq. 2 utilization are
// computed. On a warm State this path performs no allocations. Options.Debug is rejected: the invariant checker needs
// the full timeline.
func (st *State) RunCoarse(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (Coarse, error) {
	if opt.Debug {
		return Coarse{}, fmt.Errorf("sim: coarse run cannot validate (no timeline); use Run")
	}
	if err := st.prepare(arch, dg, m, p, opt); err != nil {
		return Coarse{}, err
	}
	st.starts = nil
	makespan, err := st.loop()
	if err != nil {
		return Coarse{}, err
	}
	var sum int64
	for li, g := range m.Groups {
		c := int64(g.PEsPerReplica())
		for gg := st.disp.RepOff[li]; gg < st.disp.RepOff[li+1]; gg++ {
			sum += c * st.repAct[gg]
		}
	}
	return Coarse{Makespan: makespan, Utilization: st.utilization(sum, makespan)}, nil
}

// utilization is paper Eq. 2 from the summed PE-cycles of the run.
func (st *State) utilization(peCycles, makespan int64) float64 {
	if makespan <= 0 || st.arch.NumPEs <= 0 {
		return 0
	}
	return float64(peCycles) / (float64(st.arch.NumPEs) * float64(makespan))
}

// prepare validates the inputs and resets the scratch for one run.
func (st *State) prepare(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) error {
	if err := arch.Validate(); err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("sim: nil policy")
	}
	if dg == nil || dg.CSR == nil {
		return fmt.Errorf("sim: dependency graph has no CSR (build it with deps.Build)")
	}
	if len(dg.Plan.Layers) != len(m.Groups) {
		return fmt.Errorf("sim: plan has %d layers, mapping %d groups", len(dg.Plan.Layers), len(m.Groups))
	}
	csr := dg.CSR
	nl := len(dg.Plan.Layers)
	ns := csr.NumSets()
	st.arch, st.dg, st.csr, st.m, st.p, st.edge = arch, dg, csr, m, p, opt.Edge
	st.succ = csr.Successors()
	if st.planFor != dg || st.planPolicy != p.Name() {
		st.disp = schedule.NewDispatch(dg, p)
		st.maxCycles = 1
		for _, c := range csr.Cycles {
			if c > st.maxCycles {
				st.maxCycles = c
			}
		}
		st.planFor, st.planPolicy = dg, p.Name()
	}
	totalReps := st.disp.NumReplicas()
	st.depsLeft = grow(st.depsLeft, ns)
	st.readyAt = grow(st.readyAt, ns)
	st.pos = grow(st.pos, totalReps)
	st.busy = grow(st.busy, totalReps)
	st.repAct = grow(st.repAct, totalReps)
	st.gateOpen = grow(st.gateOpen, nl)
	st.setsLeft = grow(st.setsLeft, nl)
	st.layerDone = grow(st.layerDone, nl)
	clear(st.readyAt)
	clear(st.pos)
	clear(st.busy)
	clear(st.repAct)
	clear(st.gateOpen)
	clear(st.layerDone)
	for li := range dg.Plan.Layers {
		st.setsLeft[li] = int32(dg.Plan.Layers[li].NumSets())
	}
	for i := 0; i < ns; i++ {
		st.depsLeft[i] = csr.PredOff[i+1] - csr.PredOff[i]
	}
	st.queue.Init(st.maxCycles, totalReps)
	st.window = p.Window()
	st.frontier = 0
	st.seq = 0
	st.done = 0
	return nil
}

// grow returns s resized to n, reusing its backing array when large
// enough (contents are unspecified; callers overwrite or clear).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// loop runs the event loop to completion and returns the makespan.
func (st *State) loop() (int64, error) {
	// Open the initial window and handle (degenerate) empty layers.
	st.openGates(0)
	var now int64
	for {
		e, ok := st.queue.Pop()
		if !ok {
			break
		}
		now = e.Time
		st.complete(e.P, now)
	}
	if st.done != st.csr.NumSets() {
		return 0, st.deadlockErr()
	}
	return now, nil
}

// deadlockErr names the first set that never executed.
func (st *State) deadlockErr() error {
	for g := 0; g < st.disp.NumReplicas(); g++ {
		next := st.disp.OrderOff[g] + st.pos[g]
		if next < st.disp.OrderOff[g+1] {
			si := st.disp.Order[next]
			li := 0
			for int(st.disp.RepOff[li+1]) <= g {
				li++
			}
			return fmt.Errorf("sim: set L%d/S%d never executed (deadlock)", li, si)
		}
	}
	return fmt.Errorf("sim: %d of %d sets never executed (deadlock)", st.csr.NumSets()-st.done, st.csr.NumSets())
}

// openGates admits every layer the current frontier allows (layers
// below frontier+window) and tries to start their replicas at time now.
// Layers with no sets complete immediately, which may advance the
// frontier further.
func (st *State) openGates(now int64) {
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
			for g := st.disp.RepOff[li]; g < st.disp.RepOff[li+1]; g++ {
				st.tryStart(li, g, now)
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

// tryStart launches the head set of global replica group g (of layer
// li) if the layer is admitted, the group is idle, and the set's
// dependencies are met. now is the current sim time.
func (st *State) tryStart(li int, g int32, now int64) {
	if !st.gateOpen[li] || st.busy[g] {
		return
	}
	next := st.disp.OrderOff[g] + st.pos[g]
	if next >= st.disp.OrderOff[g+1] {
		return
	}
	si := st.disp.Order[next]
	id := st.csr.LayerOff[li] + si
	if st.depsLeft[id] > 0 {
		return
	}
	start := st.readyAt[id]
	if now > start {
		start = now
	}
	end := start + st.csr.Cycles[id]
	st.busy[g] = true
	if st.starts != nil {
		st.starts[id] = start
	}
	st.seq++
	st.queue.Push(end, st.seq, id)
}

// complete processes a set-completion event: it frees the replica,
// releases consumers, advances the admission window, and starts newly
// runnable work.
func (st *State) complete(id int32, now int64) {
	csr := st.csr
	li := int(csr.SetLayer[id])
	g := st.disp.RepOf[id]
	st.repAct[g] += csr.Cycles[id]
	st.busy[g] = false
	st.pos[g]++

	sv := st.succ
	for x := sv.Off[id]; x < sv.Off[id+1]; x++ {
		cid := sv.Succ[x]
		cl := int(csr.SetLayer[cid])
		t := now
		if st.edge != nil {
			t += st.edge(deps.SetRef{Layer: li, Set: int(id - csr.LayerOff[li]), Vol: int(sv.Vol[x])}, cl)
		}
		if t > st.readyAt[cid] {
			st.readyAt[cid] = t
		}
		st.depsLeft[cid]--
		st.tryStart(cl, st.disp.RepOf[cid], now)
	}

	st.setsLeft[li]--
	if st.setsLeft[li] == 0 {
		st.layerDone[li] = true
		if li == st.frontier {
			st.openGates(now)
		}
	}
	st.done++
	// The replica may have further runnable sets.
	st.tryStart(li, g, now)
}
