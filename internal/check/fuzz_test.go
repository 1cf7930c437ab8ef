package check_test

import (
	"slices"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/sim"
)

// FuzzScheduleVsSim is the differential fuzz harness over the whole
// scheduling stack: a fuzzed random CNN is compiled (canonicalize →
// map → Stage I/II) and executed by BOTH engines — the analytic Stage IV
// list scheduler and the event-driven simulator — under a fuzzed policy
// and mapping. Every timeline must pass the independent invariant
// checker, and the two engines must agree item-for-item. Any divergence
// is a bug in one of the three subsystems. The list scheduler's
// makespan pass (the scored solver's cost model) must match both, with
// and without an edge cost, including on the graph of another
// duplication vector with the same Stage I set targets.
//
// The seed corpus in testdata/fuzz/FuzzScheduleVsSim covers both policy
// extremes, bounded windows, duplication on/off, and each Stage I
// granularity class; CI replays it on every run (go test) and mutates
// it briefly (go test -fuzz).
func FuzzScheduleVsSim(f *testing.F) {
	f.Add(int64(1), byte(4), byte(0), byte(3), byte(2))
	f.Add(int64(2), byte(6), byte(1), byte(0), byte(0))
	f.Add(int64(3), byte(5), byte(2), byte(8), byte(4))
	f.Add(int64(17), byte(7), byte(3), byte(5), byte(1))
	f.Add(int64(42), byte(3), byte(5), byte(11), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, layers, window, extra, gran byte) {
		maxBase := 2 + int(layers)%6 // [2, 7] base layers
		k := int(window) % 6         // 0 → xinf, else xK
		extraPEs := int(extra) % 12  // duplication headroom
		granularity := []int{1, 3, 9, 27, sets.FineGranularity}[int(gran)%5]

		g, err := models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: maxBase, MaxInput: 24})
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		pe := im2col.PEDims{Rows: 64, Cols: 64}
		plan, err := mapping.Analyze(g, pe)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		solver := mapping.SolverNone
		if extraPEs > 0 {
			solver = mapping.SolverDP
		}
		sol, err := mapping.Solve(plan, plan.MinPEs+extraPEs, solver)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extraPEs)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		sp, err := sets.Determine(g, m, sets.Options{TargetSets: granularity})
		if err != nil {
			t.Fatalf("stage I: %v", err)
		}
		dg, err := deps.Build(g, sp)
		if err != nil {
			t.Fatalf("stage II: %v", err)
		}

		p := schedule.CrossLayer
		if k > 0 {
			p = schedule.Windowed(k)
		}
		tl, err := schedule.Schedule(dg, p, schedule.Options{})
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if err := check.Timeline(m, dg, p, tl, check.Options{}); err != nil {
			t.Fatalf("scheduled timeline rejected: %v", err)
		}

		arch := cim.Default()
		arch.PE = pe
		arch.NumPEs = plan.MinPEs + extraPEs
		res, err := sim.Run(arch, dg, m, p, nil)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		if err := check.Timeline(m, dg, p, res.Timeline, check.Options{}); err != nil {
			t.Fatalf("simulated timeline rejected: %v", err)
		}
		if !tl.Equal(res.Timeline) {
			t.Fatalf("scheduler and simulator disagree (makespan %d vs %d)", tl.Makespan, res.Makespan)
		}

		// The makespan pass, on this graph and on the graph a different
		// vector with the same set targets would build.
		alt := slices.Clone(m.Dup)
		used := m.PEsUsed
		for i, li := range plan.Layers {
			for _, v := range []int{alt[i] - 1, alt[i] + 1} {
				if v >= 1 && v <= mapping.MaxDup(li) && used+(v-alt[i])*li.Cost <= arch.NumPEs &&
					sets.LayerTarget(granularity, v) == sets.LayerTarget(granularity, alt[i]) {
					used += (v - alt[i]) * li.Cost
					alt[i] = v
					break
				}
			}
		}
		altSol, err := mapping.NewSolution(plan, alt)
		if err != nil {
			t.Fatalf("alternative dup %v: %v", alt, err)
		}
		altM, err := mapping.Apply(g, plan, altSol, arch.NumPEs)
		if err != nil {
			t.Fatalf("apply alternative dup: %v", err)
		}
		altSP, err := sets.Determine(g, altM, sets.Options{TargetSets: granularity})
		if err != nil {
			t.Fatalf("stage I, alternative dup: %v", err)
		}
		altDG, err := deps.Build(g, altSP)
		if err != nil {
			t.Fatalf("stage II, alternative dup: %v", err)
		}
		if !altDG.CSR.Equal(dg.CSR) {
			t.Fatalf("dup %v and %v share set targets but build different graphs", alt, m.Dup)
		}
		edge := func(pred deps.SetRef, toLayer int) int64 { return int64(pred.Vol%5) + int64(toLayer%3) }
		var sc schedule.Scratch
		st := sim.NewState()
		for _, e := range []schedule.EdgeCostFn{nil, edge} {
			for _, c := range []struct {
				m  *mapping.Mapping
				dg *deps.Graph
			}{{m, dg}, {altM, altDG}} {
				want, err := schedule.Schedule(c.dg, p, schedule.Options{EdgeCost: e})
				if err != nil {
					t.Fatalf("schedule: %v", err)
				}
				coarse, err := st.RunCoarse(arch, c.dg, c.m, p, sim.Options{Edge: e})
				if err != nil {
					t.Fatalf("coarse sim: %v", err)
				}
				got, err := sc.Makespan(dg, c.m.Dup, p, e)
				if err != nil {
					t.Fatalf("makespan pass: %v", err)
				}
				if got != want.Makespan || got != coarse.Makespan {
					t.Fatalf("dup %v edge=%t: makespan pass %d, Schedule %d, RunCoarse %d",
						c.m.Dup, e != nil, got, want.Makespan, coarse.Makespan)
				}
			}
		}
	})
}
