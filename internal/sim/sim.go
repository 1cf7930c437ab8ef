// Package sim is the one-inference view of the stream event loop
// (stream.RunEvents), kept for clsabench's traced replay until ROADMAP
// item 7 moves that replay onto production's scorer. It runs one job of
// one model at concurrency 1 — the "custom system-level simulator" of
// paper §V, executing the set-level workload on explicit replica
// PE-group resources with an event queue — and returns the job's
// timeline with its Eq. 2 utilization.
//
// The event loop is independent of the analytic Stage IV recurrence in
// package schedule, so the differentials over this package
// (TestSimMatchesAnalytic, FuzzScheduleVsSim) cross-validate the two,
// and TestSimMatchesReference holds the event loop to the binary-heap
// reference in reference_test.go. Every schedule.Policy is supported:
// the event loop gates a layer until every layer Window positions back
// has completed.
package sim

import (
	"fmt"

	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
	"clsacim/internal/stream"
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
// per-set timeline.
type Coarse struct {
	Makespan    int64
	Utilization float64
}

// Options configures a simulation run.
type Options struct {
	// Edge is the optional dependency-edge cost (NoC hops, GPEU
	// processing); nil means the paper's idealized zero-cost movement.
	Edge schedule.EdgeCostFn
}

// Run simulates the workload dg on architecture arch with mapping m
// under scheduling policy p. edge is the optional dependency-edge cost
// (NoC hops, GPEU processing); nil means idealized.
func Run(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, edge schedule.EdgeCostFn) (*Result, error) {
	return NewState().Run(arch, dg, m, p, Options{Edge: edge})
}

// State is kept for API compatibility: the event loop holds no scratch
// across runs, so any State, shared or fresh, behaves the same. It is
// safe for concurrent use.
type State struct{}

// NewState returns a State.
func NewState() *State { return &State{} }

// Run simulates the workload and returns the full Result (timeline and
// utilization).
func (st *State) Run(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (*Result, error) {
	res, err := run(arch, dg, m, p, opt, false)
	if err != nil {
		return nil, err
	}
	return &Result{Timeline: res.Timelines[0], Utilization: utilization(arch, res)}, nil
}

// RunCoarse simulates the workload without materializing the per-set
// timeline: only the makespan and the Eq. 2 utilization are computed.
func (st *State) RunCoarse(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (Coarse, error) {
	res, err := run(arch, dg, m, p, opt, true)
	if err != nil {
		return Coarse{}, err
	}
	return Coarse{Makespan: res.MakespanCycles, Utilization: utilization(arch, res)}, nil
}

// run checks the inputs and runs the workload as a one-job stream.
func run(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options, coarse bool) (*stream.Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if dg == nil || dg.CSR == nil {
		return nil, fmt.Errorf("sim: dependency graph has no CSR (build it with deps.Build)")
	}
	if len(dg.Plan.Layers) != len(m.Groups) {
		return nil, fmt.Errorf("sim: plan has %d layers, mapping %d groups", len(dg.Plan.Layers), len(m.Groups))
	}
	w := stream.Workload{
		FabricPEs:   max(arch.NumPEs, m.F),
		Models:      []stream.ModelSpec{{Graph: dg, Mapping: m, Policy: p, Edge: opt.Edge}},
		Sequence:    []int{0},
		Concurrency: 1,
	}
	return stream.RunEvents(w, stream.Options{DropTimelines: coarse})
}

// utilization is paper Eq. 2: the busy PE-cycles of the run over the
// architecture's NumPEs times the makespan.
func utilization(arch cim.Config, res *stream.Result) float64 {
	if res.MakespanCycles <= 0 {
		return 0
	}
	var sum int64
	for _, a := range res.PEActive {
		sum += a
	}
	return float64(sum) / (float64(arch.NumPEs) * float64(res.MakespanCycles))
}
