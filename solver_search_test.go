package clsacim

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/mapping"
	"clsacim/internal/sets"
	"clsacim/internal/sim"
)

// searchEngine builds a fresh engine with coarse Stage I granularity so
// every search evaluation stays cheap.
func searchEngine(t *testing.T) *Engine {
	t.Helper()
	return MustNew(WithConfig(Config{TargetSets: 26}))
}

// Determinism: the same (seed, budget) must yield byte-identical
// duplication vectors and makespans regardless of GOMAXPROCS — the
// search is a single-threaded walk over a deterministic cost model, so
// worker-pool parallelism elsewhere must not leak into it.
func TestSearchSolverDeterministicAcrossGOMAXPROCS(t *testing.T) {
	req := Request{
		Model: "tinyyolov4", Mode: ModeCrossLayer, ExtraPEs: 24,
		WeightDuplication: true, Solver: "search",
		SolverSeed: 7, SolverBudget: 24,
	}
	run := func(procs int) ([]int, int64) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		// A fresh engine per run: the compile cache must not serve the
		// second run the first run's result.
		ev, err := searchEngine(t).Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Result.Duplication, ev.Result.MakespanCycles
	}
	d1, m1 := run(1)
	d4, m4 := run(4)
	if !reflect.DeepEqual(d1, d4) {
		t.Errorf("duplication differs across GOMAXPROCS: %v vs %v", d1, d4)
	}
	if m1 != m4 {
		t.Errorf("makespan differs across GOMAXPROCS: %d vs %d", m1, m4)
	}
}

// Property: with the dp start seeded into its evaluation budget, search
// never schedules worse than dp — for any model and any mode.
func TestSearchNeverWorseThanDPSchedule(t *testing.T) {
	e := searchEngine(t)
	ctx := context.Background()
	for _, model := range []string{"tinyconvnet", "tinybranchnet", "tinyyolov4"} {
		for _, mode := range []ScheduleMode{ModeLayerByLayer, ModeWindow(4), ModeCrossLayer} {
			base := Request{
				Model: model, Mode: mode, ExtraPEs: 16,
				WeightDuplication: true, SolverSeed: 1,
			}
			dpReq := base
			dpReq.Solver = "dp"
			dp, err := e.Evaluate(ctx, dpReq)
			if err != nil {
				t.Fatalf("%s/%s dp: %v", model, mode.Name(), err)
			}
			sReq := base
			sReq.Solver = "search"
			s, err := e.Evaluate(ctx, sReq)
			if err != nil {
				t.Fatalf("%s/%s search: %v", model, mode.Name(), err)
			}
			if s.Result.MakespanCycles > dp.Result.MakespanCycles {
				t.Errorf("%s/%s: search makespan %d worse than dp %d",
					model, mode.Name(), s.Result.MakespanCycles, dp.Result.MakespanCycles)
			}
		}
	}
}

// Cache keying: scored-solver knobs must only split cache entries when
// a scored solver actually runs, and the scoring mode must follow the
// request's scheduling mode.
func TestSearchSolverCacheKeys(t *testing.T) {
	e := searchEngine(t)
	ctx := context.Background()
	// A stray seed/budget on a plain solver shares the plain entry.
	for _, req := range []Request{
		{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 4, WeightDuplication: true, Solver: "dp"},
		{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 4, WeightDuplication: true, Solver: "dp", SolverSeed: 99, SolverBudget: 7},
	} {
		if _, err := e.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	// 2 keys: the shared baseline and one dp variant.
	if s := e.Stats(); s.Compiles != 2 {
		t.Errorf("dp with stray scored knobs split the cache: %d compiles, want 2", s.Compiles)
	}
	// Search under two modes optimizes two different objectives: two
	// distinct variant compilations.
	for _, mode := range []ScheduleMode{ModeCrossLayer, ModeLayerByLayer} {
		if _, err := e.Evaluate(ctx, Request{
			Model: "tinyconvnet", Mode: mode, ExtraPEs: 4,
			WeightDuplication: true, Solver: "search", SolverBudget: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Compiles != 4 {
		t.Errorf("search mode split: %d compiles, want 4", s.Compiles)
	}
	// Repeating the search requests hits the cache.
	if _, err := e.Evaluate(ctx, Request{
		Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 4,
		WeightDuplication: true, Solver: "search", SolverBudget: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Compiles != 4 {
		t.Errorf("repeat search recompiled: %d compiles, want 4", s.Compiles)
	}
}

func TestSearchSolverValidationAndOptions(t *testing.T) {
	if err := (Request{Model: "tinyconvnet", Solver: "search"}).Validate(); err != nil {
		t.Errorf("search solver rejected by Validate: %v", err)
	}
	if err := (Request{Model: "tinyconvnet", Solver: "no-such-solver"}).Validate(); err == nil {
		t.Error("unknown solver passed Validate")
	}
	if err := (Request{Model: "tinyconvnet", SolverBudget: -1}).Validate(); err == nil {
		t.Error("negative SolverBudget passed Validate")
	}
	if _, err := New(WithConfig(Config{Solver: "search", SolverBudget: 16, SolverSeed: 3})); err != nil {
		t.Errorf("scored solver engine config rejected: %v", err)
	}
	// The registry surface lists the scored solver next to the builtins.
	found := false
	for _, name := range Solvers() {
		if name == "search" {
			found = true
		}
	}
	if !found {
		t.Errorf("Solvers() = %v missing search", Solvers())
	}
}

func TestSearchKnobsJSONRoundTrip(t *testing.T) {
	in := Request{
		Model: "tinyyolov4", Mode: ModeCrossLayer, ExtraPEs: 8,
		WeightDuplication: true, Solver: "search",
		SolverBudget: 32, SolverSeed: 11,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	cfgIn := Config{WeightDuplication: true, Solver: "search", SolverBudget: 9, SolverSeed: 4, SolverMode: "x4"}
	b, err = json.Marshal(cfgIn)
	if err != nil {
		t.Fatal(err)
	}
	var cfgOut Config
	if err := json.Unmarshal(b, &cfgOut); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfgIn, cfgOut) {
		t.Errorf("config round trip: %+v != %+v", cfgOut, cfgIn)
	}
	// Zero scored knobs stay off the wire.
	b, _ = json.Marshal(Request{Model: "m"})
	if s := string(b); s != `{"model":"m","mode":"lbl"}` {
		t.Errorf("zero request marshals to %s", s)
	}
}

// rebuildScore is the reference cost model the candidateScorer must
// reproduce: every candidate lowered afresh through mapping.Apply,
// Stage I and Stage II, then timed by the coarse simulator.
func rebuildScore(c *Compiled, d []int) (int64, error) {
	sol, err := mapping.NewSolution(c.plan, d)
	if err != nil {
		return 0, err
	}
	mapped, err := mapping.Apply(c.graph, c.plan, sol, c.arch.NumPEs)
	if err != nil {
		return 0, err
	}
	sp, err := sets.Determine(c.graph, mapped, sets.Options{TargetSets: c.cfg.TargetSets})
	if err != nil {
		return 0, err
	}
	dg, err := deps.Build(c.graph, sp)
	if err != nil {
		return 0, err
	}
	mode, err := scoringMode(c.cfg, len(c.plan.Layers))
	if err != nil {
		return 0, err
	}
	var edge func(deps.SetRef, int) int64
	if mode.Window() > 1 {
		edge = edgeCostFn(c.arch, mapped)
	}
	res, err := sim.NewState().RunCoarse(c.arch, dg, mapped, mode.p, sim.Options{Edge: edge})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// The search scorer reuses one Stage I/II graph per set-target
// signature and prices candidates with the Stage IV makespan pass. On
// every candidate it must agree with a fresh rebuild timed by the
// simulator, across scoring modes, granularities, and edge costs (the
// NoC cost depends on the candidate's PE placement, which the reused
// graph does not carry); the search must land on the solution Compile
// reported; and at FineGranularity Stage I/II must run exactly once per
// solve.
func TestSearchScorerReusesStageIIGraph(t *testing.T) {
	models := map[string]int{"tinyyolov4": 128, "tinyyolov3": 96, "tinybranchnet": 32}
	for name, size := range models {
		m, err := LoadModel(name, ModelOptions{InputSize: size})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"lbl", "x4", "xinf"} {
			for _, target := range []int{sets.FineGranularity, 26, 7} {
				for _, noc := range []float64{0, 3} {
					cfg := Config{
						ExtraPEs: 16, WeightDuplication: true, TargetSets: target,
						Solver: "search", SolverSeed: 3, SolverBudget: 16, SolverMode: mode,
						NoCCyclesPerHop: noc, GPEUCyclesPerKElem: noc,
					}
					label := fmt.Sprintf("%s/%s/sets=%d/noc=%v", name, mode, target, noc)
					c, err := Compile(m, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sc, err := newCandidateScorer(c.cfg, c.graph, c.plan, c.arch.NumPEs, c.arch)
					if err != nil {
						t.Fatal(err)
					}
					evals := 0
					checked := func(d []int) (int64, error) {
						evals++
						got, err := sc.score(d)
						if err != nil {
							return 0, err
						}
						want, err := rebuildScore(c, d)
						if err != nil {
							return 0, err
						}
						if got != want {
							t.Errorf("%s: d=%v scored %d, fresh rebuild %d", label, d, got, want)
						}
						return got, nil
					}
					sol, err := mapping.SolveSearch(c.plan, c.arch.NumPEs, checked,
						mapping.ScoredOptions{Seed: cfg.SolverSeed, Budget: cfg.SolverBudget})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(sol.D, c.dup.D) {
						t.Errorf("%s: replayed search chose %v, Compile %v", label, sol.D, c.dup.D)
					}
					if target == sets.FineGranularity && sc.builds != 1 {
						t.Errorf("%s: %d Stage I/II builds over %d candidates, want 1", label, sc.builds, evals)
					}
					if sc.builds < 1 || sc.builds > evals {
						t.Errorf("%s: %d Stage I/II builds over %d candidates", label, sc.builds, evals)
					}
				}
			}
		}
	}
}
