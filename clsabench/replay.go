package main

import (
	"context"
	"fmt"
	"slices"

	"clsacim"
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
	"clsacim/internal/sim"
)

// replayer recompiles and reschedules requests stage by stage through
// the internal packages, with a span around every call into a layer, and
// requires each result to equal the Engine's own: the same duplication
// vector, set count, edge count and makespan. The replay mirrors
// clsacim.Compile under the Engine's default Config (256x256 crossbars,
// 8-bit weights, finest Stage I granularity, idealized data movement);
// if Compile changes and the replay does not follow, the comparison
// fails the run instead of silently timing something else.
type replayer struct {
	tr *tracer
	// veng is the Engine whose compilations the replay must reproduce.
	veng *clsacim.Engine

	// Work done, summed over everything replayed.
	compiles, sets, edges, items, simRuns, streamJobs int
	// scoreMS holds each scored-solver candidate evaluation's time;
	// improving counts those that lowered the best makespan so far.
	scoreMS   []float64
	improving int
}

// artifact is one replayed compilation.
type artifact struct {
	g      *nn.Graph
	mapped *mapping.Mapping
	dg     *deps.Graph
	d      []int
}

// call runs fn inside a span.
func (rp *replayer) call(parent spanID, name, id string, fn func() error) error {
	s := rp.tr.start(parent, name, id)
	err := fn()
	rp.tr.end(s)
	if err != nil {
		return fmt.Errorf("%s %s: %w", id, name, err)
	}
	return nil
}

// request replays req's compilation, schedules it under every mode, and
// compares all of it with the Engine's compilation of the same request.
func (rp *replayer) request(id string, req clsacim.Request, modes []clsacim.ScheduleMode) (*artifact, error) {
	root := rp.tr.start(0, "bench.replay", id)
	defer rp.tr.end(root)
	a, err := rp.compile(root, id, req)
	if err != nil {
		return nil, err
	}
	comp, err := rp.veng.Compile(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("%s: engine compile: %w", id, err)
	}
	var want []int
	for _, row := range comp.LayerTable() {
		want = append(want, row.Dup)
	}
	if !slices.Equal(a.d, want) || a.dg.NumSets() != comp.NumSets() || a.dg.NumEdges() != comp.NumDepEdges() {
		return nil, fmt.Errorf("%s: replay compiled d=%v with %d sets and %d edges, engine d=%v with %d sets and %d edges",
			id, a.d, a.dg.NumSets(), a.dg.NumEdges(), want, comp.NumSets(), comp.NumDepEdges())
	}
	for _, m := range modes {
		got, err := rp.schedule(root, id, a, m)
		if err != nil {
			return nil, err
		}
		rep, err := comp.Schedule(m)
		if err != nil {
			return nil, fmt.Errorf("%s: engine schedule %s: %w", id, m.Name(), err)
		}
		if got != rep.MakespanCycles {
			return nil, fmt.Errorf("%s %s: replay makespan %d, engine %d", id, m.Name(), got, rep.MakespanCycles)
		}
	}
	return a, nil
}

func (rp *replayer) compile(root spanID, id string, req clsacim.Request) (*artifact, error) {
	const weightBits = 8
	g, err := models.Build(models.ID(req.Model), models.Options{})
	if err != nil {
		return nil, err
	}
	if err := rp.call(root, "frontend.canonicalize", id, func() error {
		_, err := frontend.Canonicalize(g, frontend.Options{WeightBits: weightBits})
		return err
	}); err != nil {
		return nil, err
	}
	pe := im2col.PEDims{Rows: 256, Cols: 256}
	var plan *mapping.Plan
	if err := rp.call(root, "mapping.analyze", id, func() (err error) {
		plan, err = mapping.Analyze(g, pe)
		return err
	}); err != nil {
		return nil, err
	}
	f := plan.MinPEs + req.ExtraPEs
	arch := cim.Config{NumPEs: f, PE: pe, TMVMNanos: cim.DefaultTMVMNanos, PEsPerTile: 4,
		WeightBits: weightBits, CellBits: 4, InputBits: 8}
	solver := req.Solver
	switch {
	case !req.WeightDuplication:
		solver = mapping.SolverNone.String()
	case solver == "":
		solver = "dp"
	}
	var sol mapping.Solution
	solve := rp.tr.start(root, "mapping.solve", id)
	if scored, ok := mapping.LookupScored(solver); ok {
		var score mapping.ScoreFunc
		if score, err = rp.scorer(solve, id, g, plan, f, arch, req.Mode); err == nil {
			sol, err = scored(plan, f, score, mapping.ScoredOptions{Seed: req.SolverSeed, Budget: req.SolverBudget})
		}
	} else {
		var fn mapping.Func
		if fn, err = mapping.Lookup(solver); err == nil {
			sol, err = fn(plan, f)
		}
	}
	rp.tr.end(solve)
	if err != nil {
		return nil, fmt.Errorf("%s mapping.solve: %w", id, err)
	}
	a := &artifact{g: g, d: sol.D}
	if err := rp.stages(root, id, a, plan, sol, f); err != nil {
		return nil, err
	}
	rp.compiles++
	return a, nil
}

// stages runs mapping.Apply, Stage I and Stage II for one duplication
// solution, filling a.mapped and a.dg.
func (rp *replayer) stages(parent spanID, id string, a *artifact, plan *mapping.Plan, sol mapping.Solution, f int) error {
	if err := rp.call(parent, "mapping.apply", id, func() (err error) {
		a.mapped, err = mapping.Apply(a.g, plan, sol, f)
		return err
	}); err != nil {
		return err
	}
	var sp *sets.Plan
	if err := rp.call(parent, "sets.determine", id, func() (err error) {
		sp, err = sets.Determine(a.g, a.mapped, sets.Options{TargetSets: sets.FineGranularity})
		return err
	}); err != nil {
		return err
	}
	if err := rp.call(parent, "deps.build", id, func() (err error) {
		a.dg, err = deps.Build(a.g, sp)
		return err
	}); err != nil {
		return err
	}
	rp.sets += a.dg.NumSets()
	rp.edges += a.dg.NumEdges()
	return nil
}

// scorer is the scored solver's candidate evaluation, as the Engine's
// compile pipeline builds it: apply the candidate, run Stage I-II, and
// simulate it coarsely under the request's mode. The Engine's scorer
// reuses one sim.State across candidates; so does this one.
func (rp *replayer) scorer(parent spanID, id string, g *nn.Graph, plan *mapping.Plan, f int, arch cim.Config, mode clsacim.ScheduleMode) (mapping.ScoreFunc, error) {
	pol, err := schedule.ParseMode(mode.Name())
	if err != nil {
		return nil, err
	}
	st := sim.NewState()
	var best int64
	return func(d []int) (int64, error) {
		s := rp.tr.start(parent, "mapping.score", id)
		defer func() { rp.scoreMS = append(rp.scoreMS, ms(rp.tr.end(s))) }()
		sol, err := mapping.NewSolution(plan, d)
		if err != nil {
			return 0, err
		}
		a := &artifact{g: g}
		if err := rp.stages(s, id, a, plan, sol, f); err != nil {
			return 0, err
		}
		var res sim.Coarse
		if err := rp.call(s, "sim.run_coarse", id, func() (err error) {
			res, err = st.RunCoarse(arch, a.dg, a.mapped, pol, sim.Options{})
			return err
		}); err != nil {
			return 0, err
		}
		rp.simRuns++
		if best == 0 || res.Makespan < best {
			best = res.Makespan
			rp.improving++
		}
		return res.Makespan, nil
	}, nil
}

// schedule runs Stage III/IV, the timeline's own validation and the
// independent checker, and returns the makespan.
func (rp *replayer) schedule(parent spanID, id string, a *artifact, mode clsacim.ScheduleMode) (int64, error) {
	pol, err := schedule.ParseMode(mode.Name())
	if err != nil {
		return 0, err
	}
	id += " " + mode.Name()
	var tl *schedule.Timeline
	if err := rp.call(parent, "schedule.schedule", id, func() (err error) {
		tl, err = schedule.Schedule(a.dg, pol, schedule.Options{})
		return err
	}); err != nil {
		return 0, err
	}
	if err := rp.call(parent, "schedule.validate", id, func() error {
		return tl.Validate(a.dg, schedule.Options{})
	}); err != nil {
		return 0, err
	}
	if err := rp.call(parent, "check.timeline", id, func() error {
		return check.Timeline(a.mapped, a.dg, pol, tl, check.Options{})
	}); err != nil {
		return 0, err
	}
	rp.items += len(tl.Items)
	return tl.Makespan, nil
}
