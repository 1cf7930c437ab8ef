package integration

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/sim"
	"clsacim/internal/tensor"
)

// TestFuzzPipeline is the whole-system property test: every random CNN
// must compile, schedule validly in both modes, pipeline at least as
// fast cross-layer as layer-by-layer, satisfy Eq. 3, and agree exactly
// between the analytic scheduler and the event simulator.
func TestFuzzPipeline(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed * 31))
			g, err := models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: 7})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
				t.Fatal(err)
			}
			pe := im2col.PEDims{Rows: 32 + 32*r.Intn(8), Cols: 32 + 32*r.Intn(8)}
			plan, err := mapping.Analyze(g, pe)
			if err != nil {
				t.Fatal(err)
			}
			extra := r.Intn(12)
			solver := mapping.SolverDP
			if extra == 0 {
				solver = mapping.SolverNone
			}
			sol, err := mapping.Solve(plan, plan.MinPEs+extra, solver)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extra)
			if err != nil {
				t.Fatal(err)
			}
			granularity := []int{1, 3, 9, 27, sets.FineGranularity}[r.Intn(5)]
			sp, err := sets.Determine(g, m, sets.Options{TargetSets: granularity})
			if err != nil {
				t.Fatal(err)
			}
			dg, err := deps.Build(g, sp)
			if err != nil {
				t.Fatal(err)
			}

			lbl, err := schedule.Schedule(dg, schedule.LayerByLayer, schedule.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := lbl.Validate(dg, schedule.Options{}); err != nil {
				t.Fatalf("lbl invalid: %v", err)
			}
			xinf, err := schedule.Schedule(dg, schedule.CrossLayer, schedule.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := xinf.Validate(dg, schedule.Options{}); err != nil {
				t.Fatalf("xinf invalid: %v", err)
			}
			if xinf.Makespan > lbl.Makespan {
				t.Fatalf("xinf %d slower than lbl %d", xinf.Makespan, lbl.Makespan)
			}

			// Work conservation.
			var work int64
			for _, ls := range dg.Plan.Layers {
				work += int64(ls.Group.Node.OutShape.Pixels())
			}
			var active int64
			for _, a := range xinf.LayerActive {
				active += a
			}
			if active != work {
				t.Fatalf("active %d != work %d", active, work)
			}

			// Eq. 3 consistency between the two schedules of the same
			// mapping: S = t_lbl/t_xinf must equal Ut_xinf/Ut_lbl (same
			// F), since total PE-cycles are invariant.
			utL, err := metrics.Utilization(lbl, m)
			if err != nil {
				t.Fatal(err)
			}
			utX, err := metrics.Utilization(xinf, m)
			if err != nil {
				t.Fatal(err)
			}
			s := metrics.Speedup(lbl.Makespan, xinf.Makespan)
			if rel := math.Abs(s-utX/utL) / s; rel > 1e-9 {
				t.Fatalf("speedup %v != utilization ratio %v", s, utX/utL)
			}

			// Cross-validation: for every policy — the two extremes and a
			// sample of bounded windows — the analytic scheduler and the
			// event-driven simulator must produce identical makespans and
			// identical timelines, and the xK makespans must be monotone
			// non-increasing in K, bracketed by lbl and xinf.
			arch := cim.Default()
			arch.NumPEs = plan.MinPEs + extra
			nl := len(dg.Plan.Layers)
			policies := []schedule.Policy{schedule.LayerByLayer, schedule.CrossLayer}
			for _, k := range []int{1, 2, 3, 1 + r.Intn(nl+1), nl} {
				policies = append(policies, schedule.Windowed(k))
			}
			prevWindow, prevMakespan := 0, int64(0)
			for _, p := range policies {
				want, err := schedule.Schedule(dg, p, schedule.Options{})
				if err != nil {
					t.Fatalf("schedule %v: %v", p, err)
				}
				if err := want.Validate(dg, schedule.Options{}); err != nil {
					t.Fatalf("%v invalid: %v", p, err)
				}
				res, err := sim.Run(arch, dg, m, p, nil)
				if err != nil {
					t.Fatalf("sim %v: %v", p, err)
				}
				if res.Makespan != want.Makespan {
					t.Fatalf("sim %v makespan %d != analytic %d", p, res.Makespan, want.Makespan)
				}
				if !res.Timeline.Equal(want) {
					t.Fatalf("sim %v timeline differs from analytic", p)
				}
				if want.Makespan > lbl.Makespan || want.Makespan < xinf.Makespan {
					t.Fatalf("%v makespan %d outside [xinf %d, lbl %d]",
						p, want.Makespan, xinf.Makespan, lbl.Makespan)
				}
				if k := p.Window(); k >= prevWindow && prevMakespan > 0 && want.Makespan > prevMakespan && k != schedule.Unbounded {
					t.Fatalf("x%d makespan %d > x%d makespan %d (not monotone)",
						k, want.Makespan, prevWindow, prevMakespan)
				} else if k >= prevWindow && k != schedule.Unbounded {
					prevWindow, prevMakespan = k, want.Makespan
				}
			}
		})
	}
}

// TestFuzzFunctional verifies canonicalization and the duplication
// rewrite preserve outputs on random weight-carrying CNNs.
func TestFuzzFunctional(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g, err := models.RandomCNN(models.RandomOptions{
				Seed: seed + 1000, MaxBaseLayers: 5, WithWeights: true, MaxInput: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			in := tensor.New(g.Input.OutShape)
			in.FillRand(seed, 1)
			exec := &nn.Executor{}
			before, err := exec.RunOutputs(g, in)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
				t.Fatal(err)
			}
			after, err := exec.RunOutputs(g, in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range before {
				scale := before[i].MaxAbs()
				if d := tensor.MaxAbsDiff(before[i], after[i]); float64(d) > 1e-4*float64(scale)+1e-5 {
					t.Fatalf("canonicalization changed output %d by %v (scale %v)", i, d, scale)
				}
			}

			// Duplication rewrite equivalence on the canonical graph.
			pe := im2col.PEDims{Rows: 64, Cols: 64}
			plan, err := mapping.Analyze(g, pe)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := mapping.Solve(plan, plan.MinPEs+4, mapping.SolverGreedy)
			if err != nil {
				t.Fatal(err)
			}
			if err := mapping.RewriteDuplication(g, plan, sol); err != nil {
				t.Fatal(err)
			}
			duped, err := exec.RunOutputs(g, in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range after {
				if d := tensor.MaxAbsDiff(after[i], duped[i]); d != 0 {
					t.Fatalf("duplication rewrite changed output %d by %v", i, d)
				}
			}
		})
	}
}

// TestFuzzDepsOracleLight runs the Stage II availability-sufficiency
// oracle on random graphs at random granularity (a lighter version of
// the exhaustive oracle in package deps, across far more topologies).
func TestFuzzDepsOracleLight(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g, err := models.RandomCNN(models.RandomOptions{Seed: seed + 500, MaxBaseLayers: 5, MaxInput: 24})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
				t.Fatal(err)
			}
			pe := im2col.PEDims{Rows: 64, Cols: 64}
			plan, err := mapping.Analyze(g, pe)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := mapping.Solve(plan, plan.MinPEs, mapping.SolverNone)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mapping.Apply(g, plan, sol, plan.MinPEs)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := sets.Determine(g, m, sets.Options{TargetSets: 3 + int(seed%5)})
			if err != nil {
				t.Fatal(err)
			}
			dg, err := deps.Build(g, sp)
			if err != nil {
				t.Fatal(err)
			}
			// Cheap structural checks on every set: deps strictly
			// earlier, volumes positive and bounded by the predecessor
			// set volume.
			for li := range dg.Plan.Layers {
				for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
					for _, ref := range dg.DepsOf(li, si) {
						if ref.Layer >= li {
							t.Fatalf("layer %d set %d depends forward on %d", li, si, ref.Layer)
						}
						pv := dg.Plan.Layers[ref.Layer].Box(ref.Set).Volume()
						if ref.Vol <= 0 || ref.Vol > pv {
							t.Fatalf("dep volume %d outside (0, %d]", ref.Vol, pv)
						}
					}
				}
			}
		})
	}
}
