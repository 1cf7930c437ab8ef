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
// Every run follows the same rules, whichever scheduler computes it:
//
//   - Each replica PE group is a physical resource serving the jobs of
//     its model strictly FIFO in per-model issue order, each job's sets
//     in Stage III's round-robin raster order: a group starts inference
//     j+1's sets only after finishing its share of inference j. This
//     flow-shop discipline keeps per-model completions in issue order,
//     which the admission gate relies on.
//   - Within a job, the policy's admission window (1 for lbl, K for
//     xK, unbounded for xinf) applies unchanged; across jobs of one
//     model an admission gate bounds the number in flight
//     (Options.MaxInFlight).
//   - Models co-scheduled on a shared crossbar pool (overlapping PE
//     ranges) conflict wherever their replica groups share a physical
//     PE: a group may not start while a conflicting group is busy.
//
// Run takes one of two schedulers:
//
//   - Conflict-free workloads — one model, or models on disjoint PE
//     ranges, which is every workload but a SharedPool of two or more
//     models — are scheduled job by job in issue order by Stage IV
//     itself (schedule.Scratch.Job). No resource is ever arbitrated
//     there, so a set's start is a max-plus recurrence: the latest of
//     its replica's previous finish (carried from job to job), its
//     dependencies' finishes plus edge cost, its layer's window gate,
//     and its job's admission. Admission is the later of the arrival
//     and the end of the model's job k-MaxInFlight; closed-loop
//     arrivals are the retirements in time order, popped from a
//     min-heap of job ends. The queue trace follows from the job
//     lifecycles.
//   - Shared pools keep a discrete-event loop, also exported as
//     RunEvents for any workload (internal/sim runs single inferences
//     through it). It reads Stage III from the round-robin rule itself
//     (deps.Replica): replica r of a layer with d replicas runs the
//     layer's sets r, r+d, r+2d and so on, so a group's next set is its
//     first plus d times the sets it has completed, and no per-set
//     table is built. A group's FIFO is its model's admitted jobs in
//     issue order from a per-group cursor on. Every job keeps only
//     per-group cursors, dependency counters and window state: 4 bytes
//     per set (12 when timelines are kept or edges cost, which add each
//     set's ready time), taken from a per-model free list at admission
//     and returned at retirement, so memory scales with the jobs in
//     flight. The loop is greedy: after every event, every group whose
//     head set can start has started. A head becomes startable only
//     when its last dependency completes, its layer's gate opens, its
//     group or a conflicting group frees, or its FIFO head changes; a
//     freed group retries only the conflicting groups that the busy
//     check alone held back. The loop is deadlock-free: a blocked group
//     only ever waits on a busy resource, and busy resources always
//     complete.
//
// With idealized (nil) edge costs both schedulers walk the model's
// dominant-predecessor view (deps.Graph.Dominant) instead of its full
// dependency graph. Of a set's predecessors on one replica group of one
// layer, that group runs the last in raster order after all the others,
// so it alone can bind: dropping the others changes neither a
// recurrence start nor the completion event that makes a set ready. On
// TinyYOLOv4 wdup+32 at fine granularity the view keeps 181,623 of
// 384,579 edges. It is exact only for zero-cost edges and the plan's own
// duplication, so an edge cost selects the full graph, and check.Stream
// validates against the full graph (FuzzStreamDominantVsFull holds the
// two to deep-equal results).
//
// On conflict-free workloads the two schedulers return deep-equal
// results (FuzzStreamListVsEvents, through RunEvents): a greedy flow
// shop without arbitration starts every set at the latest of the same
// terms the recurrence takes. Both poll Options.Context, the recurrence
// once per job and the event loop every few thousand events. Neither
// adds up busy cycles: every retired job ran each set of its model
// once, on the set's Stage III replica, so a run's PE activity is each
// model's deps.Graph.Activity times its job count (peActive).
//
// The oracle for all of this is check.Stream, which revalidates every
// per-job timeline plus the cross-inference invariants from scratch.
// This package does not call it: callers that want the check (the
// clsacim Engine under WithValidation, and this package's tests) run it
// on Result.Timelines, which Options.DropTimelines leaves nil.
package stream

import (
	"context"
	"fmt"
	"slices"

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
	// Context, when non-nil, cancels the run: the scheduler polls it
	// once per job (conflict-free workloads) or every few thousand
	// events (shared pools) and returns its error.
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

// payload is the calendar-queue payload: a job arrival (group < 0) or
// the completion of the set the job runs on global replica group
// group; a group runs one set at a time, so the group and the job's
// cursor on it name the set. The queue itself (a bucketed calendar
// queue, internal/eventq) orders events by (time, seq) exactly as the
// previous inlined binary heap did — arrivals are enqueued with the
// lowest sequence numbers before any completion, so at equal times
// arrivals still precede completions and keep admission timing
// byte-identical.
type payload struct {
	job   int32
	group int32
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
	// until the set starts, and its start time from then on; nil when
	// the model needs neither (modelRun.readyAt).
	readyAt []int64
	pos     []int32 // completed sets per model-local replica group

	// A layer is done once its gate is open and no set is left.
	gateOpen []bool
	setsLeft []int32
	frontier int

	remaining int // sets left until the job completes
}

// modelRun is one model class's run-time data: the graph its jobs
// walk, its replica groups, its admission bookkeeping, and the free
// list of its retired job states.
type modelRun struct {
	// csr is the graph the loop walks: the model's dominant view
	// (deps.Graph.Dominant) with idealized edges, its full CSR with an
	// edge cost.
	csr  *deps.CSR
	succ *deps.SuccView // csr.Successors()
	edge schedule.EdgeCostFn
	// base is the global id of the model's first replica group, and
	// layer li owns the model-local groups [repOff[li], repOff[li+1]).
	base   int
	repOff []int32
	window int
	// readyAt reports whether the model's jobs keep per-set ready
	// times: only an edge cost or a kept timeline reads them.
	readyAt bool

	// jobs holds the model's job indices in issue order, and nextAdmit
	// the first one not yet admitted. Every admitted job is queued on
	// every group of its model, so a group's FIFO is
	// jobs[group.head:nextAdmit].
	jobs      []int32
	nextAdmit int
	// done counts completed jobs (completions are provably in issue
	// order under the FIFO discipline).
	done int
	free []*jobState
}

// group is one replica PE group: its Stage III rule, its FIFO cursor
// and its state in the loop.
type group struct {
	model int32
	layer int32
	// first is the flat id of the group's first set and dup its layer's
	// replica count: the group runs first, first+dup, first+2*dup and
	// so on, up to its layer's end.
	first, dup int32
	// head indexes the model's jobs: earlier jobs are done with the
	// group.
	head int32
	busy bool
	// blocked reports that the group's last tryStart found a startable
	// head set but a busy conflicting group: only such groups can start
	// when a conflicting group frees.
	blocked bool
}

type engine struct {
	w      Workload
	gate   int
	models []modelRun
	groups []group
	// conflicts[G] lists the groups of *other* models sharing a
	// physical PE with group G (shared crossbar pools).
	conflicts [][]int32

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
	if conflictFree(w.Models) {
		return runList(w, opt)
	}
	return newEngine(w, opt).run()
}

// RunEvents executes the workload with the discrete-event loop, whatever
// its PE layout; Run takes it only for shared pools. Its results on
// conflict-free workloads equal Run's (FuzzStreamListVsEvents), which
// makes it the event-driven reference for the Stage IV recurrence.
func RunEvents(w Workload, opt Options) (*Result, error) {
	if err := validate(w, opt); err != nil {
		return nil, err
	}
	return newEngine(w, opt).run()
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
		res:       &Result{Jobs: make([]JobStat, len(w.Sequence))},
	}
	if e.timelines {
		e.res.Timelines = make([]*schedule.Timeline, len(w.Sequence))
	}
	span := int64(1)
	for mi, s := range w.Models {
		m := &e.models[mi]
		m.csr = s.Graph.CSR
		if s.Edge == nil {
			m.csr = s.Graph.Dominant()
		}
		m.succ = m.csr.Successors()
		m.edge = s.Edge
		m.readyAt = s.Edge != nil || e.timelines
		m.base = len(e.groups)
		m.repOff = make([]int32, len(s.Graph.Plan.Layers)+1)
		for li, ls := range s.Graph.Plan.Layers {
			d := int32(ls.Group.Dup)
			m.repOff[li+1] = m.repOff[li] + d
			for r := int32(0); r < d; r++ {
				e.groups = append(e.groups, group{
					model: int32(mi), layer: int32(li),
					first: m.csr.LayerOff[li] + r, dup: d,
				})
			}
		}
		m.window = s.Policy.Window()
		for _, c := range m.csr.Cycles {
			if c > span {
				span = c
			}
		}
	}
	total := len(e.groups)
	e.conflicts = buildConflicts(w.Models, e.models, w.FabricPEs, total)
	for j, mi := range w.Sequence {
		e.models[mi].jobs = append(e.models[mi].jobs, int32(j))
	}
	e.queue.Init(span, total)
	return e
}

// buildConflicts maps every physical PE to the replica groups mapped
// onto it and records, per group, the distinct other groups it shares a
// PE with, in ascending order. Within one (non-virtualized) model the
// groups are disjoint, so conflicts only arise between models on a
// shared pool.
func buildConflicts(specs []ModelSpec, models []modelRun, fabricPEs, total int) [][]int32 {
	// owners[pe] lists the groups on PE pe. A PE's first owner sits in
	// first, so only shared PEs allocate.
	owners := make([][]int32, fabricPEs)
	first := make([]int32, fabricPEs)
	for mi, s := range specs {
		gid := int32(models[mi].base)
		for _, g := range s.Mapping.Groups {
			for r := 0; r < g.Dup; r++ {
				for _, pe := range g.ReplicaPEs(r) {
					p := s.PEBase + pe
					if owners[p] == nil {
						first[p] = gid
						owners[p] = first[p : p+1 : p+1]
					} else {
						owners[p] = append(owners[p], gid)
					}
				}
				gid++
			}
		}
	}
	conflicts := make([][]int32, total)
	for _, os := range owners {
		if len(os) < 2 {
			continue
		}
		for _, a := range os {
			for _, b := range os {
				if a != b {
					conflicts[a] = append(conflicts[a], b)
				}
			}
		}
	}
	for g, c := range conflicts {
		slices.Sort(c)
		conflicts[g] = slices.Compact(c)
	}
	return conflicts
}

func (e *engine) run() (*Result, error) {
	var now int64
	if e.w.Arrivals != nil {
		for j, t := range e.w.Arrivals {
			e.seq++
			e.queue.Push(t, e.seq, payload{job: int32(j), group: -1})
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
		if ev.P.group < 0 {
			e.arrive(ev.P.job, now)
			e.admitAll(now)
		} else if e.complete(ev.P, now) {
			e.admitAll(now)
		}
	}
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
	e.res.PEActive = peActive(e.w)
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

// admit instantiates job j's execution state and starts whatever the
// window allows. admitAll has already advanced the model's nextAdmit
// past j, which queues the job on every group of its model.
func (e *engine) admit(j int32, mi int, now int64) {
	e.jobs[j] = e.models[mi].newJob(mi)
	e.phase[j] = jobAdmitted
	e.openGates(j, now)
}

// newJob takes a jobState from the free list, or allocates one when
// every recycled state is in flight, and resets its counters from the
// CSR's offsets. readyAt, when the model keeps it, is not cleared: a
// stale entry is a start time of an earlier job, no later than this
// admission, so it can never delay a start.
func (m *modelRun) newJob(mi int) *jobState {
	c := m.csr
	var jb *jobState
	if n := len(m.free); n > 0 {
		jb = m.free[n-1]
		m.free = m.free[:n-1]
		clear(jb.pos)
		clear(jb.gateOpen)
	} else {
		nl := c.NumLayers()
		jb = &jobState{
			model:    mi,
			depsLeft: make([]int32, c.NumSets()),
			pos:      make([]int32, m.repOff[nl]),
			gateOpen: make([]bool, nl),
			setsLeft: make([]int32, nl),
		}
		if m.readyAt {
			jb.readyAt = make([]int64, c.NumSets())
		}
	}
	for i := range jb.depsLeft {
		jb.depsLeft[i] = c.PredOff[i+1] - c.PredOff[i]
	}
	for li := range jb.setsLeft {
		jb.setsLeft[li] = c.LayerOff[li+1] - c.LayerOff[li]
	}
	jb.start = -1
	jb.frontier = 0
	jb.remaining = c.NumSets()
	return jb
}

// openGates admits every layer of job j the window allows and tries to
// start their replica groups; empty layers complete immediately and may
// advance the frontier further.
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
				progressed = true
				continue
			}
			for g := m.repOff[li]; g < m.repOff[li+1]; g++ {
				e.tryStart(m.base+int(g), now)
			}
		}
		for jb.frontier < nl && jb.gateOpen[jb.frontier] && jb.setsLeft[jb.frontier] == 0 {
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
// conflicting group is busy, and records in blocked whether only a
// conflicting group stood in the way. The cursor passes jobs that have
// exhausted their share of the group.
func (e *engine) tryStart(G int, now int64) {
	g := &e.groups[G]
	if g.busy {
		return
	}
	g.blocked = false
	m := &e.models[g.model]
	lg := G - m.base
	end := m.csr.LayerOff[g.layer+1]
	for ; int(g.head) < m.nextAdmit; g.head++ {
		j := m.jobs[g.head]
		jb := e.jobs[j]
		if jb == nil {
			continue // retired: done with every group
		}
		id := g.first + jb.pos[lg]*g.dup
		if id >= end {
			continue // job done with this group; serve the next one
		}
		if jb.depsLeft[id] > 0 || !jb.gateOpen[g.layer] {
			return
		}
		for _, c := range e.conflicts[G] {
			if e.groups[c].busy {
				g.blocked = true
				return
			}
		}
		start := now
		if jb.readyAt != nil {
			start = max(start, jb.readyAt[id])
			jb.readyAt[id] = start
		}
		g.busy = true
		if jb.start < 0 || start < jb.start {
			jb.start = start
		}
		e.seq++
		e.queue.Push(start+m.csr.Cycles[id], e.seq, payload{job: j, group: int32(G)})
		return
	}
}

// groupOf returns the model-local replica group of flat set id of layer
// li: the Stage III rule deps.Replica, offset by the layer's first
// group, in unsigned 32-bit arithmetic, whose division is the cheapest.
func (m *modelRun) groupOf(li int, id int32) int {
	lo := uint32(m.repOff[li])
	return int(lo + uint32(id-m.csr.LayerOff[li])%(uint32(m.repOff[li+1])-lo))
}

// complete processes one set completion: it frees the group, releases
// in-job successors, advances the job's window, and — when the job's
// last set finishes — retires the job, releases its admission-gate
// slot, and (closed loop) spawns the next arrival. It reports whether
// the job retired.
func (e *engine) complete(ev payload, now int64) (retired bool) {
	jb := e.jobs[ev.job]
	m := &e.models[jb.model]
	csr := m.csr
	G := int(ev.group)
	g := &e.groups[G]
	lg := G - m.base
	// The group runs one set at a time: the job's next on it.
	id := g.first + jb.pos[lg]*g.dup
	li := int(g.layer)

	g.busy = false
	jb.pos[lg]++

	// Without edge costs a successor is ready when its last dependency
	// completes, so its readyAt is never above the clock and stays
	// untouched (or absent, see modelRun.readyAt).
	sv := m.succ
	for x := sv.Off[id]; x < sv.Off[id+1]; x++ {
		cid := sv.Succ[x]
		if m.edge != nil {
			ref := deps.SetRef{Layer: li, Set: int(id - csr.LayerOff[li]), Vol: int(sv.Vol[x])}
			if t := now + m.edge(ref, int(csr.SetLayer[cid])); t > jb.readyAt[cid] {
				jb.readyAt[cid] = t
			}
		}
		if jb.depsLeft[cid]--; jb.depsLeft[cid] == 0 {
			e.tryStart(m.base+m.groupOf(int(csr.SetLayer[cid]), cid), now)
		}
	}

	jb.setsLeft[li]--
	if jb.setsLeft[li] == 0 && li == jb.frontier {
		e.openGates(ev.job, now)
	}

	jb.remaining--
	if jb.remaining == 0 {
		e.retire(ev.job, now)
		retired = true
	}

	e.tryStart(G, now)
	// Freeing G changes nothing for a conflicting group but the busy
	// check, so only the groups it blocked can start now; every other
	// condition of a start is retried by the event that changes it.
	for _, c := range e.conflicts[G] {
		if e.groups[c].blocked {
			e.tryStart(int(c), now)
		}
	}
	return retired
}

// retire finalizes a completed job: lifecycle stats, the job's
// timeline (when kept), queue sample, admission-gate release, and the
// closed-loop respawn. The job's state goes back to its model's free
// list; the group cursors still short of the job skip it from now on.
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
// every set's start time by now, so the starts are a copy of it.
func (e *engine) timeline(jb *jobState, makespan int64) *schedule.Timeline {
	s := e.w.Models[jb.model]
	tl := schedule.NewTimeline(s.Graph, s.Policy)
	tl.Makespan = makespan
	copy(tl.Items, jb.readyAt)
	return tl
}
