package clsacim

import (
	"context"
	"errors"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/mapping"
)

// validation_test.go covers the WithValidation engine option: every
// timeline the Engine produces is machine-checked by the
// engine-independent invariant checker (internal/check).

// TestWithValidationAcceptsAllModes: validation-on evaluation succeeds
// across the policy family, mapping knobs, and data-movement costs —
// i.e. the checker agrees with the scheduler on real workloads.
func TestWithValidationAcceptsAllModes(t *testing.T) {
	eng, err := New(WithValidation(), WithConfig(Config{TargetSets: 12}))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Model: "tinyconvnet", Mode: ModeLayerByLayer},
		{Model: "tinyconvnet", Mode: ModeWindow(2)},
		{Model: "tinybranchnet", Mode: ModeCrossLayer, ExtraPEs: 6, WeightDuplication: true},
		{Model: "tinyyolov4", Mode: ModeCrossLayer, ExtraPEs: 16, WeightDuplication: true},
		// Repeated request: served from the timeline cache, exercising
		// the validate-once memoization path.
		{Model: "tinyconvnet", Mode: ModeLayerByLayer},
	} {
		ev, err := eng.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Model, req.Mode, err)
		}
		if ev.Result.MakespanCycles <= 0 {
			t.Fatalf("%s %s: empty result", req.Model, req.Mode)
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

// TestValidatingTimelineRunsCheck: Compiled.timeline is where a
// validating Engine runs check.Timeline. Two replica groups of one
// layer made to share a PE pass Timeline.Validate, which checks each
// replica on its own, but not check.Timeline's exclusivity pass: the
// request fails with validation on and is served with it off.
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
		if comp.hasTimeline(req.Mode) {
			t.Error("a timeline that failed the check was cached")
		}
	}
}
