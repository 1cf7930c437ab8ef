package sim

import (
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/deps"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
)

// TestRunOptDebug: the engine-independent invariant checker
// (internal/check) accepts the simulator's own timelines under every
// policy.
func TestRunOptDebug(t *testing.T) {
	c := compile(t, models.TinyBranchNet, 0, 4, 9)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(2), schedule.CrossLayer} {
		res, err := Run(c.arch, c.dg, c.m, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := check.Timeline(c.m, c.dg, p, res.Timeline, check.Options{}); err != nil {
			t.Fatalf("%s: the checker rejected the simulator's own timeline: %v", p, err)
		}
	}
}

// TestRunOptDebugEdgeCost: checked against the run's own edge cost,
// timelines with charged data movement still pass.
func TestRunOptDebugEdgeCost(t *testing.T) {
	c := compile(t, models.TinyBranchNet, 0, 0, 9)
	cost := func(pred deps.SetRef, toLayer int) int64 { return 2 }
	res, err := Run(c.arch, c.dg, c.m, schedule.CrossLayer, cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Timeline(c.m, c.dg, schedule.CrossLayer, res.Timeline, check.Options{EdgeCost: cost}); err != nil {
		t.Fatal(err)
	}
}
