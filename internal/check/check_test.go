package check_test

import (
	"errors"
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

type compiled struct {
	m    *mapping.Mapping
	dg   *deps.Graph
	arch cim.Config
}

// compile runs the shape-only compilation pipeline for one builtin
// model at coarse granularity.
func compile(t *testing.T, id models.ID, extra, targetSets int) compiled {
	t.Helper()
	g := models.MustBuild(id, models.Options{})
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

func policies() []schedule.Policy {
	return []schedule.Policy{
		schedule.LayerByLayer,
		schedule.Windowed(2),
		schedule.Windowed(4),
		schedule.CrossLayer,
	}
}

// copyTimeline deep-copies the mutable parts of a timeline so
// corruption tests do not alias the original.
func copyTimeline(tl *schedule.Timeline) *schedule.Timeline {
	c := *tl
	c.Items = append([]int64(nil), tl.Items...)
	c.LayerActive = append([]int64(nil), tl.LayerActive...)
	c.ReplicaActive = make([][]int64, len(tl.ReplicaActive))
	for i, r := range tl.ReplicaActive {
		c.ReplicaActive[i] = append([]int64(nil), r...)
	}
	return &c
}

// TestTimelinePassesEveryPolicyEveryModel: both engines' timelines for
// every builtin model under every policy family member must satisfy the
// full invariant set.
func TestTimelinePassesEveryPolicyEveryModel(t *testing.T) {
	heavy := map[models.ID]bool{
		models.VGG19: true, models.ResNet50: true,
		models.ResNet101: true, models.ResNet152: true,
	}
	for _, id := range models.SortedIDs() {
		id := id
		if testing.Short() && heavy[id] {
			continue
		}
		t.Run(string(id), func(t *testing.T) {
			t.Parallel()
			c := compile(t, id, 6, 12)
			for _, p := range policies() {
				tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
				if err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				if err := check.Timeline(c.m, c.dg, p, tl, check.Options{}); err != nil {
					t.Fatalf("%s: scheduled timeline rejected: %v", p.Name(), err)
				}
				res, err := sim.Run(c.arch, c.dg, c.m, p, nil)
				if err != nil {
					t.Fatalf("%s: sim: %v", p.Name(), err)
				}
				if err := check.Timeline(c.m, c.dg, p, res.Timeline, check.Options{}); err != nil {
					t.Fatalf("%s: simulated timeline rejected: %v", p.Name(), err)
				}
				if !tl.Equal(res.Timeline) {
					t.Fatalf("%s: schedule and sim timelines differ", p.Name())
				}
			}
		})
	}
}

// TestTimelineWithEdgeCostPasses: the checker accepts timelines produced
// under a dependency-edge cost when given the same cost model, and
// rejects them under a larger one.
func TestTimelineWithEdgeCostPasses(t *testing.T) {
	c := compile(t, models.TinyBranchNet, 4, 9)
	cost := func(pred deps.SetRef, toLayer int) int64 { return 3 }
	tl, err := schedule.Schedule(c.dg, schedule.CrossLayer, schedule.Options{EdgeCost: cost})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{EdgeCost: cost}); err != nil {
		t.Fatalf("timeline rejected under its own cost model: %v", err)
	}
	bigger := func(pred deps.SetRef, toLayer int) int64 { return 10 }
	err = check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{EdgeCost: bigger})
	assertKind(t, err, check.KindDependency)
}

func assertKind(t *testing.T, err error, want check.Kind) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected, want %s violation", want)
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *check.Violation", err)
	}
	if v.Kind != want {
		t.Fatalf("violation kind = %s (%v), want %s", v.Kind, err, want)
	}
}

// TestTimelineRejectsCorruption: hand-corrupted copies of a valid
// timeline must be rejected with the right violation kind.
func TestTimelineRejectsCorruption(t *testing.T) {
	c := compile(t, models.TinyBranchNet, 4, 9)
	csr := c.dg.CSR

	schedOf := func(p schedule.Policy) *schedule.Timeline {
		tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}

	t.Run("dependency swap", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		// Pull a dependent set to before its latest predecessor's end.
		for id := 0; id < csr.NumSets(); id++ {
			var need int64 = -1
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				if end := tl.End(int(csr.Pred[e])); end > need {
					need = end
				}
			}
			if need <= 0 {
				continue
			}
			tl.Items[id] = need - 1
			assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindDependency)
			return
		}
		t.Fatal("no dependent set found to corrupt")
	})

	t.Run("crossbar overlap", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.LayerByLayer))
		// Overlap the first layer's second set onto its first on the
		// same replica (layer 0 has no dependencies and no window gate,
		// so exclusivity is the first invariant to break).
		starts := tl.ItemsOf(0)
		for si := 1; si < len(starts); si++ {
			if tl.At(0, si).Replica != tl.At(0, 0).Replica {
				continue
			}
			starts[si] = starts[0]
			assertKind(t, check.Timeline(c.m, c.dg, schedule.LayerByLayer, tl, check.Options{}), check.KindExclusivity)
			return
		}
		t.Skip("layer 0 has no two sets on one replica at this granularity")
	})

	t.Run("replica order swapped", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.LayerByLayer))
		// Run two back-to-back sets of one replica in the opposite
		// order. The pair keeps its interval and nothing overlaps, so
		// only the Stage III rule (a replica runs its sets in raster
		// order) gives it away: under layer-by-layer every dependency
		// and the window gate are met before the layer's first set.
		for li := 0; li < tl.NumLayers(); li++ {
			starts := tl.ItemsOf(li)
			d := len(tl.ReplicaActive[li])
			for a := 0; a+d < len(starts); a++ {
				first, second := tl.At(li, a), tl.At(li, a+d)
				if second.Start != first.End || first.Start == first.End || second.Start == second.End {
					continue
				}
				starts[a+d] = first.Start
				starts[a] = first.Start + second.End - second.Start
				assertKind(t, check.Timeline(c.m, c.dg, schedule.LayerByLayer, tl, check.Options{}), check.KindExclusivity)
				return
			}
		}
		t.Fatal("no replica with two back-to-back sets found to reorder")
	})

	t.Run("window violation", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.LayerByLayer))
		// Find a set whose dependencies finished strictly before its
		// layer's admission gate, and start it inside that gap: legal by
		// data dependencies, illegal under the window-1 admission rule.
		var gate int64
		for li := 1; li < tl.NumLayers(); li++ {
			gate = max(gate, tl.EndOf(li-1))
			id := csr.ID(li, 0)
			var need int64
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				if end := tl.End(int(csr.Pred[e])); end > need {
					need = end
				}
			}
			if need < gate && tl.Items[id] == gate {
				tl.Items[id] = gate - 1
				assertKind(t, check.Timeline(c.m, c.dg, schedule.LayerByLayer, tl, check.Options{}), check.KindWindow)
				return
			}
		}
		t.Fatal("no window-gated set found to corrupt")
	})

	t.Run("active cycles tampered", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.LayerActive[0]++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindConservation)
	})

	t.Run("replica accounting tampered", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.ReplicaActive[0][0]++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindConservation)
	})

	t.Run("duration stretched", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		// A timeline's durations come from the CSR arrays it aliases.
		// Point it at another graph's arrays in which the last set runs
		// one cycle longer: no successors, nothing after it on its
		// replica, so only the comparison with the workload's own Stage I
		// cycles gives it away.
		tl.Cycles = append([]int64(nil), csr.Cycles...)
		tl.Cycles[len(tl.Cycles)-1]++
		tl.Off = append([]int32(nil), csr.LayerOff...)
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindShape)
	})

	t.Run("foreign layer offsets", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.Off = append([]int32(nil), csr.LayerOff...)
		tl.Off[1]++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindShape)
	})

	t.Run("makespan tampered", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.Makespan++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindMakespan)
	})
}

// TestViolationMessage: violations carry their location and read as one
// line.
func TestViolationMessage(t *testing.T) {
	v := &check.Violation{Kind: check.KindDependency, Layer: 3, Set: 7, Msg: "starts early"}
	if got := v.Error(); got != "check: dependency violation at L3/S7: starts early" {
		t.Errorf("Error() = %q", got)
	}
	v = &check.Violation{Kind: check.KindMakespan, Layer: -1, Set: -1, Msg: "off by one"}
	if got := v.Error(); got != "check: makespan violation: off by one" {
		t.Errorf("Error() = %q", got)
	}
}
