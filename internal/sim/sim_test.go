package sim

import (
	"slices"
	"testing"

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

type compiled struct {
	m    *mapping.Mapping
	dg   *deps.Graph
	arch cim.Config

	g          *nn.Graph
	plan       *mapping.Plan
	targetSets int
}

func compile(t *testing.T, id models.ID, inputSize, extra, targetSets int) compiled {
	t.Helper()
	g := models.MustBuild(id, models.Options{InputSize: inputSize})
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
	return compiled{m: m, dg: dg, arch: arch, g: g, plan: plan, targetSets: targetSets}
}

// withDup recompiles c's workload from scratch under duplication
// vector d.
func (c compiled) withDup(t *testing.T, d []int) compiled {
	t.Helper()
	sol, err := mapping.NewSolution(c.plan, d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(c.g, c.plan, sol, c.arch.NumPEs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(c.g, m, sets.Options{TargetSets: c.targetSets})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := deps.Build(c.g, sp)
	if err != nil {
		t.Fatal(err)
	}
	c.m, c.dg = m, dg
	return c
}

// altDup returns a feasible duplication vector other than c's with the
// same per-layer sets.LayerTarget signature, or nil if a one-step
// change finds none.
func altDup(c compiled) []int {
	d := slices.Clone(c.m.Dup)
	used := c.m.PEsUsed
	for i, li := range c.plan.Layers {
		target := sets.LayerTarget(c.targetSets, d[i])
		for _, v := range []int{d[i] - 1, d[i] + 1} {
			if v >= 1 && v <= mapping.MaxDup(li) && used+(v-d[i])*li.Cost <= c.arch.NumPEs &&
				sets.LayerTarget(c.targetSets, v) == target {
				used += (v - d[i]) * li.Cost
				d[i] = v
				break
			}
		}
	}
	if slices.Equal(d, c.m.Dup) {
		return nil
	}
	return d
}

// checkMakespanPass asserts that the list scheduler's makespan pass
// agrees with schedule.Schedule and State.RunCoarse on c under p and
// edge — once with c's own duplication, and once on c's graph with a
// different vector of the same set-target signature against a fresh
// compile of that vector, the way the scored solver reuses graphs.
func checkMakespanPass(t *testing.T, label string, c compiled, p schedule.Policy, edge schedule.EdgeCostFn) {
	t.Helper()
	var s schedule.Scratch
	st := NewState()
	check := func(ref compiled, d []int, what string) {
		t.Helper()
		want, err := schedule.Schedule(ref.dg, p, schedule.Options{EdgeCost: edge})
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := st.RunCoarse(ref.arch, ref.dg, ref.m, p, Options{Edge: edge})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Makespan(c.dg, d, p, edge)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Makespan || got != coarse.Makespan {
			t.Errorf("%s %v %s: makespan pass %d, Schedule %d, RunCoarse %d",
				label, p, what, got, want.Makespan, coarse.Makespan)
		}
	}
	check(c, c.m.Dup, "own dup")
	if d := altDup(c); d != nil {
		alt := c.withDup(t, d)
		if !alt.dg.CSR.Equal(c.dg.CSR) {
			t.Fatalf("%s: dup %v and %v share set targets but build different graphs", label, d, c.m.Dup)
		}
		check(alt, d, "other dup")
	}
}

// TestSimMatchesAnalytic is the central cross-validation: the
// discrete-event simulator and the analytic Stage IV recursion must
// produce identical timelines (makespan, every item, every activity
// counter) under every policy, across models and configurations.
func TestSimMatchesAnalytic(t *testing.T) {
	cases := []struct {
		id         models.ID
		size       int
		extra      int
		targetSets int
	}{
		{models.TinyBranchNet, 16, 0, 4},
		{models.TinyConvNet, 32, 0, sets.FineGranularity},
		{models.TinyYOLOv4, 416, 0, 26},
		{models.TinyYOLOv4, 416, 32, 104},
		{models.TinyYOLOv3, 416, 16, 52},
		{models.ResNet50, 64, 8, 26},
		{models.TinyMLP, 8, 0, 4},
		{models.MobileNetV1, 0, 32, 26},
	}
	for _, c := range cases {
		cp := compile(t, c.id, c.size, c.extra, c.targetSets)
		policies := []schedule.Policy{
			schedule.LayerByLayer, schedule.CrossLayer,
			schedule.Windowed(1), schedule.Windowed(2), schedule.Windowed(3), schedule.Windowed(5),
		}
		for _, p := range policies {
			want, err := schedule.Schedule(cp.dg, p, schedule.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(cp.arch, cp.dg, cp.m, p, nil)
			if err != nil {
				t.Fatalf("%s %v: %v", c.id, p, err)
			}
			if got.Makespan != want.Makespan {
				t.Errorf("%s x=%d %v: sim makespan %d != analytic %d",
					c.id, c.extra, p, got.Makespan, want.Makespan)
			}
			checkMakespanPass(t, string(c.id), cp, p, nil)
			if !got.Timeline.Equal(want) {
				for i := range want.Items {
					if got.Items[i] != want.Items[i] {
						t.Fatalf("%s %v: item %d: sim %+v != analytic %+v",
							c.id, p, i, got.Item(i), want.Item(i))
					}
				}
				t.Fatalf("%s %v: timelines differ outside items", c.id, p)
			}
		}
	}
}

// TestSimWithEdgeCost cross-validates under a nonzero NoC/GPEU edge
// cost, per policy.
func TestSimWithEdgeCost(t *testing.T) {
	cp := compile(t, models.TinyYOLOv4, 128, 16, 26)
	edge := func(pred deps.SetRef, toLayer int) int64 {
		return int64(pred.Vol%7) + int64(toLayer%3)
	}
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(4), schedule.CrossLayer} {
		want, err := schedule.Schedule(cp.dg, p, schedule.Options{EdgeCost: edge})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cp.arch, cp.dg, cp.m, p, edge)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan {
			t.Errorf("%v: edge-cost sim makespan %d != analytic %d", p, got.Makespan, want.Makespan)
		}
		checkMakespanPass(t, "tinyyolov4 edge", cp, p, edge)
	}
}

func TestRunValidation(t *testing.T) {
	cp := compile(t, models.TinyBranchNet, 16, 0, 4)
	bad := cp.arch
	bad.NumPEs = 0
	if _, err := Run(bad, cp.dg, cp.m, schedule.CrossLayer, nil); err == nil {
		t.Error("invalid arch accepted")
	}
	// Mismatched mapping.
	other := compile(t, models.TinyConvNet, 16, 0, 4)
	if _, err := Run(cp.arch, cp.dg, other.m, schedule.CrossLayer, nil); err == nil {
		t.Error("mismatched mapping accepted")
	}
}
