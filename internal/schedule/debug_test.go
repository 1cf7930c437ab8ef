package schedule_test

import (
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
)

// TestScheduleSatisfiesChecker: the scheduler's own timelines pass the
// engine-independent invariant checker (internal/check) under every
// policy.
func TestScheduleSatisfiesChecker(t *testing.T) {
	_, m, dg := schedule.CompileDeps(t, models.TinyBranchNet, 0, 4, 9)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(2), schedule.CrossLayer} {
		tl, err := schedule.Schedule(dg, p, schedule.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := check.Timeline(m, dg, p, tl, check.Options{}); err != nil {
			t.Fatalf("%s: the checker rejected the scheduler's own timeline: %v", p, err)
		}
	}
}
