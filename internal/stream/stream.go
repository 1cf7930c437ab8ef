// Package stream schedules a *stream* of inference requests over one
// simulated CIM fabric — the serving scenario of the ROADMAP north-star,
// where CLSA-CIM's single-inference timeline becomes the unit of work of
// a continuously loaded system. Weights stay resident, so back-to-back
// inferences of one model pipeline through the fabric: while inference
// j's late layers drain, inference j+1's early layers already execute on
// the replica PE groups that have gone idle. Steady-state throughput is
// therefore measured as completed inferences per unit time, not as
// 1/makespan of a single inference.
//
// The engine is a discrete-event simulator in the style of internal/sim,
// generalized across inferences ("jobs") and models:
//
//   - Every job instantiates the shared, immutable Stage III dispatch
//     plan (schedule.Dispatch) of its model — round-robin in raster
//     order, the same for every policy — and keeps only per-job
//     cursors, dependency counters, and window state: 12 bytes per set
//     (an unmet-dependency count, and a ready time that becomes the
//     set's start time once it starts). The state is taken from a
//     per-model free list when the job is admitted and returned to it
//     when the job retires, so memory scales with the jobs in flight,
//     not with the jobs served.
//   - Each replica PE group is a physical resource serving the jobs of
//     its model strictly FIFO in per-model issue order: a group starts
//     inference j+1's sets only after finishing its share of inference
//     j. This flow-shop discipline keeps per-model completions in issue
//     order (which the admission gate relies on) and is deadlock-free —
//     a blocked group only ever waits on a *busy* resource, and busy
//     resources always complete.
//   - Within a job, the policy's admission window (1 for lbl, K for
//     xK, unbounded for xinf) applies unchanged; across jobs of one
//     model an admission gate bounds the number in flight
//     (Options.MaxInFlight).
//   - Models co-scheduled on a shared crossbar pool (overlapping PE
//     ranges) conflict wherever their replica groups share a physical
//     PE: a group may not start while a conflicting group is busy.
//
// The engine is greedy: after every event, every group whose head set
// can start has started. A head becomes startable only when its last
// dependency completes, its layer's gate opens, its group or a
// conflicting group frees, or its FIFO head changes, so a completion
// wakes a successor's group only once that successor is ready.
//
// The oracle for all of this is check.Stream, which revalidates every
// per-job timeline plus the cross-inference invariants from scratch.
// This package does not call it: callers that want the check (the
// clsacim Engine under WithValidation, and this package's tests) run it
// on Result.Timelines. A job's timeline is built once, when the job
// retires, unless Options.DropTimelines is set.
package stream

import (
	"context"
	"fmt"

	"clsacim/internal/deps"
	"clsacim/internal/eventq"
	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
)

// ModelSpec is one resident model class: its compiled workload, the
// scheduling policy of every inference of the class, the optional
// dependency-edge cost, and where its mapping's PE indices sit in the
// global fabric. Disjoint pools give each model a private PE range;
// overlapping ranges time-share the shared crossbars.
type ModelSpec struct {
	Name    string
	Graph   *deps.Graph
	Mapping *mapping.Mapping
	Policy  schedule.Policy
	Edge    schedule.EdgeCostFn
	PEBase  int
}

// Workload is one stream scheduling problem.
type Workload struct {
	// FabricPEs is the global fabric size; every model's PE range must
	// fit inside it.
	FabricPEs int
	Models    []ModelSpec
	// Sequence names the model class of each job in issue order.
	Sequence []int
	// Arrivals holds the absolute arrival cycle of each job
	// (non-decreasing, same length as Sequence). Nil selects the
	// closed-loop arrival process instead: Concurrency jobs arrive at
	// cycle 0 and every completion immediately admits the next job.
	Arrivals []int64
	// Concurrency is the closed-loop population (ignored when Arrivals
	// is set).
	Concurrency int
}

// Options configures a stream run.
type Options struct {
	// MaxInFlight is the inter-inference admission gate: inference j of
	// a model (per-model issue order) is admitted only once inference
	// j-MaxInFlight of the same model has fully completed. 0 disables
	// the gate.
	MaxInFlight int
	// DropTimelines leaves Result.Timelines nil for callers that read
	// only the lifecycle stats.
	DropTimelines bool
	// Context, when non-nil, cancels the run: the event loop polls it
	// every few thousand events and returns its error.
	Context context.Context
}

// JobStat is the lifecycle of one job in absolute stream cycles.
type JobStat struct {
	Model   int
	Arrival int64
	Start   int64 // first set execution
	End     int64 // last set completion
}

// QueueSample is one point of the queue-depth trace: Depth jobs were in
// the system (arrived, not yet completed) from Time onward.
type QueueSample struct {
	Time  int64
	Depth int
}

// Result is the outcome of one stream run.
type Result struct {
	// Jobs holds per-job lifecycle stats in issue order.
	Jobs []JobStat
	// Timelines holds each job's executed timeline in absolute stream
	// time (Makespan = the job's own last completion), issue order; nil
	// under Options.DropTimelines.
	Timelines []*schedule.Timeline
	// MakespanCycles is the completion time of the whole stream.
	MakespanCycles int64
	// PEActive[p] is the busy cycles of global fabric PE p.
	PEActive []int64
	// Queue is the queue-depth trace, one sample per change.
	Queue []QueueSample
}

// payload is the calendar-queue payload: a job arrival (id < 0) or the
// completion of the job's flat set id. The queue itself (a bucketed
// calendar queue, internal/eventq) orders events by (time, seq) exactly
// as the previous inlined binary heap did — arrivals are enqueued with
// the lowest sequence numbers before any completion, so at equal times
// arrivals still precede completions and keep admission timing
// byte-identical.
type payload struct {
	job int32
	id  int32
}

// jobState is the mutable execution state of one admitted job. It
// lives only while the job is in flight: retire builds the job's
// timeline from it (when timelines are kept) and returns it to its
// model's free list for the next admission.
type jobState struct {
	model int
	start int64 // earliest item start, -1 until first start

	depsLeft []int32 // unmet dependency count per flat set
	// readyAt is the max dependency completion (+edge cost) of a set
	// until the set starts, and its start time from then on.
	readyAt []int64
	pos     []int32 // completed-set cursor per model-local replica group

	gateOpen  []bool
	setsLeft  []int32
	layerDone []bool
	frontier  int

	remaining int // sets left until the job completes
}

// fifoQueue is a per-group FIFO of admitted job indices.
type fifoQueue struct {
	q    []int32
	head int
}

// modelRun is one model class's run-time data: its immutable dispatch
// plan and counter templates, its admission bookkeeping, and the free
// list of its retired job states.
type modelRun struct {
	disp *schedule.Dispatch
	csr  *deps.CSR
	succ *deps.SuccView // csr.Successors()
	edge schedule.EdgeCostFn
	// base is the global id of the model's first replica group.
	base int
	// grpLayer[lg] is the layer of model-local replica group lg.
	grpLayer []int32
	// preds and layerSets are the templates a job's depsLeft and
	// setsLeft reset from: predecessors per set, sets per layer.
	preds     []int32
	layerSets []int32
	window    int

	jobs []int32 // job indices, issue order
	// nextAdmit indexes jobs: the first job not yet admitted.
	nextAdmit int
	// done counts completed jobs (completions are provably in issue
	// order under the FIFO discipline).
	done int
	free []*jobState
}

type engine struct {
	w      Workload
	gate   int
	models []modelRun
	// conflicts[G] lists the groups of *other* models sharing a
	// physical PE with group G (shared crossbar pools).
	conflicts [][]int32
	busy      []bool
	fifo      []fifoQueue
	// grpAct[G] accumulates the busy cycles of global replica group G
	// across all jobs; the per-PE fan-out happens once at the end of the
	// run instead of once per completion event.
	grpAct []int64

	// jobs[j] is job j's state while it is in flight, nil before
	// admission and after retirement.
	jobs        []*jobState
	phase       []jobPhase
	timelines   bool
	nextArrival int // closed loop: next job index to spawn

	queue eventq.Queue[payload]
	seq   int64
	ctx   context.Context

	res   *Result
	depth int
}

// jobPhase is where a job stands in its lifecycle.
type jobPhase uint8

const (
	jobPending jobPhase = iota
	jobArrived
	jobAdmitted
	jobRetired
)

// cancelPoll is the number of events between polls of Options.Context.
const cancelPoll = 4096

// Run executes the workload and returns the stream result. The run is
// fully deterministic: identical inputs produce identical timelines.
func Run(w Workload, opt Options) (*Result, error) {
	if err := validate(w, opt); err != nil {
		return nil, err
	}
	e := newEngine(w, opt)
	return e.run()
}

func validate(w Workload, opt Options) error {
	if w.FabricPEs <= 0 {
		return fmt.Errorf("stream: fabric has %d PEs", w.FabricPEs)
	}
	if len(w.Models) == 0 {
		return fmt.Errorf("stream: no models")
	}
	for mi, s := range w.Models {
		if s.Graph == nil || s.Graph.CSR == nil || s.Mapping == nil {
			return fmt.Errorf("stream: model %d has a nil graph, CSR, or mapping", mi)
		}
		if s.PEBase < 0 || s.PEBase+s.Mapping.F > w.FabricPEs {
			return fmt.Errorf("stream: model %d PE range [%d, %d) outside fabric of %d",
				mi, s.PEBase, s.PEBase+s.Mapping.F, w.FabricPEs)
		}
	}
	if len(w.Sequence) == 0 {
		return fmt.Errorf("stream: empty job sequence")
	}
	for j, mi := range w.Sequence {
		if mi < 0 || mi >= len(w.Models) {
			return fmt.Errorf("stream: job %d names model %d of %d", j, mi, len(w.Models))
		}
	}
	if w.Arrivals != nil {
		if len(w.Arrivals) != len(w.Sequence) {
			return fmt.Errorf("stream: %d arrivals for %d jobs", len(w.Arrivals), len(w.Sequence))
		}
		for j, a := range w.Arrivals {
			if a < 0 {
				return fmt.Errorf("stream: job %d has negative arrival %d", j, a)
			}
			if j > 0 && a < w.Arrivals[j-1] {
				return fmt.Errorf("stream: arrivals not sorted at job %d (%d < %d)", j, a, w.Arrivals[j-1])
			}
		}
	} else if w.Concurrency <= 0 {
		return fmt.Errorf("stream: closed loop needs Concurrency >= 1, have %d", w.Concurrency)
	}
	if opt.MaxInFlight < 0 {
		return fmt.Errorf("stream: negative admission gate %d", opt.MaxInFlight)
	}
	return nil
}

func newEngine(w Workload, opt Options) *engine {
	e := &engine{
		w:         w,
		gate:      opt.MaxInFlight,
		models:    make([]modelRun, len(w.Models)),
		jobs:      make([]*jobState, len(w.Sequence)),
		phase:     make([]jobPhase, len(w.Sequence)),
		timelines: !opt.DropTimelines,
		ctx:       opt.Context,
		res: &Result{
			Jobs:     make([]JobStat, len(w.Sequence)),
			PEActive: make([]int64, w.FabricPEs),
		},
	}
	if e.timelines {
		e.res.Timelines = make([]*schedule.Timeline, len(w.Sequence))
	}
	total := 0
	span := int64(1)
	for mi, s := range w.Models {
		m := &e.models[mi]
		m.disp = schedule.NewDispatch(s.Graph)
		m.csr = s.Graph.CSR
		m.succ = m.csr.Successors()
		m.edge = s.Edge
		m.base = total
		total += m.disp.NumReplicas()
		m.grpLayer = make([]int32, m.disp.NumReplicas())
		m.layerSets = make([]int32, len(s.Graph.Plan.Layers))
		for li := range m.layerSets {
			for g := m.disp.RepOff[li]; g < m.disp.RepOff[li+1]; g++ {
				m.grpLayer[g] = int32(li)
			}
			m.layerSets[li] = int32(s.Graph.Plan.Layers[li].NumSets())
		}
		m.preds = make([]int32, m.csr.NumSets())
		for i := range m.preds {
			m.preds[i] = m.csr.PredOff[i+1] - m.csr.PredOff[i]
		}
		m.window = s.Policy.Window()
		for _, c := range m.csr.Cycles {
			if c > span {
				span = c
			}
		}
	}
	e.busy = make([]bool, total)
	e.fifo = make([]fifoQueue, total)
	e.grpAct = make([]int64, total)
	e.conflicts = buildConflicts(w.Models, e.models, total)
	for j, mi := range w.Sequence {
		e.models[mi].jobs = append(e.models[mi].jobs, int32(j))
	}
	e.queue.Init(span, total)
	return e
}

// buildConflicts maps every physical PE to the replica groups mapped
// onto it and records, per group, the distinct other groups it shares a
// PE with. Within one (non-virtualized) model the groups are disjoint,
// so conflicts only arise between models on a shared pool.
func buildConflicts(specs []ModelSpec, models []modelRun, total int) [][]int32 {
	owners := map[int][]int32{}
	for mi, s := range specs {
		gid := int32(models[mi].base)
		for _, g := range s.Mapping.Groups {
			for r := 0; r < g.Dup; r++ {
				for _, pe := range g.ReplicaPEs(r) {
					owners[s.PEBase+pe] = append(owners[s.PEBase+pe], gid)
				}
				gid++
			}
		}
	}
	sets := make([]map[int32]bool, total)
	for _, os := range owners {
		if len(os) < 2 {
			continue
		}
		for _, a := range os {
			for _, b := range os {
				if a == b {
					continue
				}
				if sets[a] == nil {
					sets[a] = map[int32]bool{}
				}
				sets[a][b] = true
			}
		}
	}
	conflicts := make([][]int32, total)
	for g, set := range sets {
		for b := range set {
			conflicts[g] = append(conflicts[g], b)
		}
		// Deterministic retry order.
		for i := 1; i < len(conflicts[g]); i++ {
			for k := i; k > 0 && conflicts[g][k] < conflicts[g][k-1]; k-- {
				conflicts[g][k], conflicts[g][k-1] = conflicts[g][k-1], conflicts[g][k]
			}
		}
	}
	return conflicts
}

func (e *engine) run() (*Result, error) {
	var now int64
	if e.w.Arrivals != nil {
		for j, t := range e.w.Arrivals {
			e.seq++
			e.queue.Push(t, e.seq, payload{job: int32(j), id: -1})
		}
	} else {
		n := e.w.Concurrency
		if n > len(e.w.Sequence) {
			n = len(e.w.Sequence)
		}
		for j := 0; j < n; j++ {
			e.arrive(int32(j), 0)
		}
		e.nextArrival = n
		e.admitAll(0)
	}
	for n := 1; ; n++ {
		if e.ctx != nil && n%cancelPoll == 0 {
			if err := e.ctx.Err(); err != nil {
				return nil, fmt.Errorf("stream: run abandoned at cycle %d: %w", now, err)
			}
		}
		ev, ok := e.queue.Pop()
		if !ok {
			break
		}
		now = ev.Time
		// Admission can change only when a job arrives or retires.
		if ev.P.id < 0 {
			e.arrive(ev.P.job, now)
			e.admitAll(now)
		} else if e.complete(ev.P, now) {
			e.admitAll(now)
		}
	}
	e.bookPEActivity()
	for j, ph := range e.phase {
		if ph < jobAdmitted {
			return nil, fmt.Errorf("stream: job %d (model %d) never admitted (deadlock)", j, e.w.Sequence[j])
		}
		if ph == jobAdmitted {
			return nil, fmt.Errorf("stream: job %d (model %d) incomplete, %d sets pending (deadlock)",
				j, e.jobs[j].model, e.jobs[j].remaining)
		}
	}
	e.res.MakespanCycles = now
	return e.res, nil
}

// arrive marks job j in the system at time t and samples the queue.
func (e *engine) arrive(j int32, t int64) {
	e.phase[j] = jobArrived
	e.res.Jobs[j].Arrival = t
	e.depth++
	e.sampleQueue(t)
}

func (e *engine) sampleQueue(t int64) {
	q := e.res.Queue
	if n := len(q); n > 0 && q[n-1].Time == t {
		q[n-1].Depth = e.depth
	} else {
		e.res.Queue = append(q, QueueSample{Time: t, Depth: e.depth})
	}
}

// admitAll admits every job whose arrival has passed and whose model's
// admission gate allows another inference in flight. Admission order is
// per-model issue order.
func (e *engine) admitAll(now int64) {
	for mi := range e.models {
		m := &e.models[mi]
		for m.nextAdmit < len(m.jobs) {
			j := m.jobs[m.nextAdmit]
			if e.phase[j] != jobArrived {
				break
			}
			if e.gate > 0 && m.nextAdmit >= e.gate+m.done {
				break
			}
			m.nextAdmit++
			e.admit(j, mi, now)
		}
	}
}

// admit instantiates job j's execution state, enqueues it on every
// replica group of its model, and starts whatever the window allows.
func (e *engine) admit(j int32, mi int, now int64) {
	m := &e.models[mi]
	e.jobs[j] = m.newJob(mi)
	e.phase[j] = jobAdmitted
	for g := 0; g < m.disp.NumReplicas(); g++ {
		e.fifo[m.base+g].q = append(e.fifo[m.base+g].q, j)
	}
	e.openGates(j, now)
}

// newJob takes a jobState from the free list, or allocates one when
// every recycled state is in flight, and resets its counters. readyAt
// is not cleared: a stale entry is a start time of an earlier job, no
// later than this admission, so it can never delay a start.
func (m *modelRun) newJob(mi int) *jobState {
	var jb *jobState
	if n := len(m.free); n > 0 {
		jb = m.free[n-1]
		m.free = m.free[:n-1]
		clear(jb.pos)
		clear(jb.gateOpen)
		clear(jb.layerDone)
	} else {
		nl := len(m.layerSets)
		jb = &jobState{
			model:     mi,
			depsLeft:  make([]int32, len(m.preds)),
			readyAt:   make([]int64, len(m.preds)),
			pos:       make([]int32, m.disp.NumReplicas()),
			gateOpen:  make([]bool, nl),
			setsLeft:  make([]int32, nl),
			layerDone: make([]bool, nl),
		}
	}
	copy(jb.depsLeft, m.preds)
	copy(jb.setsLeft, m.layerSets)
	jb.start = -1
	jb.frontier = 0
	jb.remaining = len(m.preds)
	return jb
}

// openGates admits every layer of job j the window allows and tries to
// start their replica groups; empty layers complete immediately and may
// advance the frontier further (mirrors sim.openGates, per job).
func (e *engine) openGates(j int32, now int64) {
	jb := e.jobs[j]
	m := &e.models[jb.model]
	nl := len(jb.gateOpen)
	for {
		limit := nl
		if m.window < nl-jb.frontier {
			limit = jb.frontier + m.window
		}
		progressed := false
		for li := 0; li < limit; li++ {
			if jb.gateOpen[li] {
				continue
			}
			jb.gateOpen[li] = true
			if jb.setsLeft[li] == 0 {
				jb.layerDone[li] = true
				progressed = true
				continue
			}
			for g := m.disp.RepOff[li]; g < m.disp.RepOff[li+1]; g++ {
				e.tryStart(m.base+int(g), now)
			}
		}
		for jb.frontier < nl && jb.layerDone[jb.frontier] {
			jb.frontier++
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// tryStart launches the head set of global replica group G if the
// group's FIFO head job has an admitted, dependency-ready set and no
// conflicting group is busy. Jobs that have exhausted their share of
// the group are popped on the way.
func (e *engine) tryStart(G int, now int64) {
	if e.busy[G] {
		return
	}
	f := &e.fifo[G]
	for f.head < len(f.q) {
		j := f.q[f.head]
		jb := e.jobs[j]
		if jb == nil {
			f.pop() // retired: done with every group
			continue
		}
		m := &e.models[jb.model]
		lg := int32(G - m.base)
		next := m.disp.OrderOff[lg] + jb.pos[lg]
		if next >= m.disp.OrderOff[lg+1] {
			f.pop()
			continue // job done with this group; serve the next one
		}
		li := int(m.grpLayer[lg])
		if !jb.gateOpen[li] {
			return
		}
		id := m.csr.ID(li, int(m.disp.Order[next]))
		if jb.depsLeft[id] > 0 {
			return
		}
		for _, c := range e.conflicts[G] {
			if e.busy[c] {
				return
			}
		}
		start := now
		if jb.readyAt[id] > start {
			start = jb.readyAt[id]
		}
		e.busy[G] = true
		jb.readyAt[id] = start
		if jb.start < 0 || start < jb.start {
			jb.start = start
		}
		e.seq++
		e.queue.Push(start+m.csr.Cycles[id], e.seq, payload{job: j, id: id})
		return
	}
}

// pop drops the head job, compacting once half the queue is popped so
// that the queue's length stays within twice the jobs it holds.
func (f *fifoQueue) pop() {
	if f.head++; 2*f.head >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q, f.head = f.q[:n], 0
	}
}

// complete processes one set completion: it books the busy cycles,
// frees the group, releases in-job successors, advances the job's
// window, and — when the job's last set finishes — retires the job,
// releases its admission-gate slot, and (closed loop) spawns the next
// arrival. It reports whether the job retired.
func (e *engine) complete(ev payload, now int64) (retired bool) {
	jb := e.jobs[ev.job]
	m := &e.models[jb.model]
	csr := m.csr
	li := int(csr.SetLayer[ev.id])
	lg := m.disp.RepOf[ev.id] // O(1) inverse of the policy's Replica rule
	G := m.base + int(lg)

	e.grpAct[G] += csr.Cycles[ev.id]
	e.busy[G] = false
	jb.pos[lg]++

	// Without edge costs a successor is ready when its last dependency
	// completes, so its readyAt is never above the clock and stays
	// untouched.
	sv := m.succ
	for x := sv.Off[ev.id]; x < sv.Off[ev.id+1]; x++ {
		cid := sv.Succ[x]
		if m.edge != nil {
			ref := deps.SetRef{Layer: li, Set: int(ev.id - csr.LayerOff[li]), Vol: int(sv.Vol[x])}
			if t := now + m.edge(ref, int(csr.SetLayer[cid])); t > jb.readyAt[cid] {
				jb.readyAt[cid] = t
			}
		}
		if jb.depsLeft[cid]--; jb.depsLeft[cid] == 0 {
			e.tryStart(m.base+int(m.disp.RepOf[cid]), now)
		}
	}

	jb.setsLeft[li]--
	if jb.setsLeft[li] == 0 {
		jb.layerDone[li] = true
		if li == jb.frontier {
			e.openGates(ev.job, now)
		}
	}

	jb.remaining--
	if jb.remaining == 0 {
		e.retire(ev.job, now)
		retired = true
	}

	e.tryStart(G, now)
	for _, c := range e.conflicts[G] {
		e.tryStart(int(c), now)
	}
	return retired
}

// bookPEActivity distributes the accumulated per-group busy cycles onto
// the global fabric PEs once at the end of the run — every PE of a
// replica is active exactly while the replica executes, so the fan-out
// commutes with per-event accumulation.
func (e *engine) bookPEActivity() {
	for mi, s := range e.w.Models {
		m := &e.models[mi]
		for li := range s.Graph.Plan.Layers {
			for lg := m.disp.RepOff[li]; lg < m.disp.RepOff[li+1]; lg++ {
				a := e.grpAct[m.base+int(lg)]
				if a == 0 {
					continue
				}
				rep := int(lg - m.disp.RepOff[li])
				for _, pe := range s.Mapping.Groups[li].ReplicaPEs(rep) {
					e.res.PEActive[s.PEBase+pe] += a
				}
			}
		}
	}
}

// retire finalizes a completed job: lifecycle stats, the job's
// timeline (when kept), queue sample, admission-gate release, and the
// closed-loop respawn. The job's state goes back to its model's free
// list; the FIFOs still naming the job skip it from now on.
func (e *engine) retire(j int32, t int64) {
	jb := e.jobs[j]
	m := &e.models[jb.model]
	e.res.Jobs[j].Model = jb.model
	e.res.Jobs[j].Start = jb.start
	e.res.Jobs[j].End = t
	if e.timelines {
		e.res.Timelines[j] = e.timeline(jb, t)
	}
	e.jobs[j] = nil
	e.phase[j] = jobRetired
	m.free = append(m.free, jb)
	m.done++
	e.depth--
	e.sampleQueue(t)
	if e.w.Arrivals == nil && e.nextArrival < len(e.w.Sequence) {
		e.arrive(int32(e.nextArrival), t)
		e.nextArrival++
	}
}

// timeline builds a retired job's executed timeline: readyAt holds
// every set's start time by now, so the starts are a copy of it, and
// the activity rows follow from each set's replica and duration.
func (e *engine) timeline(jb *jobState, makespan int64) *schedule.Timeline {
	s := e.w.Models[jb.model]
	m := &e.models[jb.model]
	tl := schedule.NewTimeline(s.Graph, s.Policy)
	tl.Makespan = makespan
	copy(tl.Items, jb.readyAt)
	for li := range s.Graph.Plan.Layers {
		for id := m.csr.LayerOff[li]; id < m.csr.LayerOff[li+1]; id++ {
			c := m.csr.Cycles[id]
			tl.LayerActive[li] += c
			tl.ReplicaActive[li][m.disp.RepOf[id]-m.disp.RepOff[li]] += c
		}
	}
	return tl
}
