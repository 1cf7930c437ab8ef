package clsacim

import (
	"context"
	"errors"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/mapping"
)

// validation_test.go covers the WithValidation engine option: the
// timeline of every (compilation, mode) the Engine schedules is
// machine-checked by the engine-independent invariant checker
// (internal/check).

// TestWithValidationAcceptsAllModes: validation-on evaluation succeeds
// across the policy family, mapping knobs, and data-movement costs —
// i.e. the checker agrees with the scheduler on real workloads. The
// rows cover every Engine path that builds a timeline, since a
// validating Engine is the only one that checks it.
func TestWithValidationAcceptsAllModes(t *testing.T) {
	coarse := MustNew(WithValidation(), WithConfig(Config{TargetSets: 12}))
	fine := MustNew(WithValidation()) // the default fine granularity
	for _, tc := range []struct {
		eng *Engine
		req Request
	}{
		{coarse, Request{Model: "tinyconvnet", Mode: ModeLayerByLayer}},
		{coarse, Request{Model: "tinyconvnet", Mode: ModeWindow(2)}},
		{coarse, Request{Model: "tinybranchnet", Mode: ModeCrossLayer, ExtraPEs: 6, WeightDuplication: true}},
		{coarse, Request{Model: "tinyyolov4", Mode: ModeCrossLayer, ExtraPEs: 16, WeightDuplication: true}},
		// Repeated request: served from the makespan cache, exercising
		// the validate-once memoization path.
		{coarse, Request{Model: "tinyconvnet", Mode: ModeLayerByLayer}},
		// No duplication: served as an F-view of the x = 0 compilation,
		// whose mapping reports the larger F.
		{coarse, Request{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 8}},
		// The scored solver, with a small candidate budget.
		{coarse, Request{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 6, WeightDuplication: true,
			Solver: "search", SolverBudget: 4}},
		{fine, Request{Model: "tinyyolov4", Mode: ModeLayerByLayer, ExtraPEs: 32, WeightDuplication: true}},
		{fine, Request{Model: "tinyyolov4", Mode: ModeWindow(4), ExtraPEs: 32, WeightDuplication: true}},
		{fine, Request{Model: "tinyyolov4", Mode: ModeCrossLayer, ExtraPEs: 32, WeightDuplication: true}},
	} {
		ev, err := tc.eng.Evaluate(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%+v: %v", tc.req, err)
		}
		if ev.Result.MakespanCycles <= 0 {
			t.Fatalf("%+v: empty result", tc.req)
		}
	}
}

// TestWithValidationEdgeCost: validation must pass when data movement is
// charged on dependency edges (the checker replays the same cost model).
func TestWithValidationEdgeCost(t *testing.T) {
	eng, err := New(WithValidation(), WithConfig(Config{TargetSets: 9, NoCCyclesPerHop: 2, GPEUCyclesPerKElem: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.Evaluate(context.Background(), Request{Model: "tinybranchnet", Mode: ModeCrossLayer})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Result.MakespanCycles <= 0 {
		t.Fatal("empty result")
	}
}

// TestWithValidationVirtualized: virtualized timelines (layers
// time-sharing a swap pool below PEmin, with reload gaps) satisfy the
// invariant set too — crossbar exclusivity is temporal, so PE sharing is
// legal exactly because layer-by-layer execution serializes it.
func TestWithValidationVirtualized(t *testing.T) {
	cfg := Config{
		TotalPEs:             150,
		WeightVirtualization: true,
		TargetSets:           26,
	}
	eng, err := New(WithValidation(), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Schedule(context.Background(), Request{Model: "vgg16", Mode: ModeLayerByLayer})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReloadCycles <= 0 {
		t.Fatal("virtualized schedule reports no reload cycles")
	}
}

// TestValidatingTimelineRunsCheck: Compiled.makespan is where a
// validating Engine runs check.Timeline, and the only check a timeline
// gets. Two replica groups of one layer made to share a PE schedule
// fine — the scheduler orders each replica on its own — but fail
// check.Timeline's exclusivity pass: the request fails with validation
// on and is served with it off.
func TestValidatingTimelineRunsCheck(t *testing.T) {
	ctx := context.Background()
	req := Request{Model: "tinyconvnet", Mode: ModeLayerByLayer, ExtraPEs: 8, WeightDuplication: true}
	for _, validate := range []bool{false, true} {
		var opts []Option
		if validate {
			opts = append(opts, WithValidation())
		}
		eng := MustNew(opts...)
		comp, err := eng.Compile(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var g *mapping.Group
		for _, gr := range comp.mapped.Groups {
			if gr.Dup >= 2 {
				g = gr
				break
			}
		}
		if g == nil {
			t.Fatal("no duplicated layer to corrupt")
		}
		g.PEs[g.PEsPerReplica()] = g.PEs[0] // replica 1 takes replica 0's first PE
		_, err = eng.Schedule(ctx, req)
		if !validate {
			if err != nil {
				t.Fatalf("validation off: %v", err)
			}
			continue
		}
		var v *check.Violation
		if !errors.As(err, &v) || v.Kind != check.KindExclusivity {
			t.Fatalf("validation on: err = %v, want an exclusivity violation", err)
		}
		if comp.hasMakespan(req.Mode) {
			t.Error("the makespan of a timeline that failed the check was cached")
		}
	}
}
