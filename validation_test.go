package clsacim

import (
	"context"
	"testing"
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
