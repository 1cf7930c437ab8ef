package sim

import (
	"testing"

	"clsacim/internal/models"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
)

// TestRunAllocs pins the steady-state allocation profile of the
// simulator. A full Run must allocate only the Result it returns (the
// Timeline's arrays are the caller's to keep); the State reuses its
// scratch and the dispatch plan of the previous run on the same graph,
// so the budget is small and independent of workload size.
// The coarse path returns scalars by value and must not allocate at all
// once the scratch is warm, under any policy and across policy changes.
func TestRunAllocs(t *testing.T) {
	cp := compile(t, models.TinyYOLOv4, 128, 0, sets.FineGranularity)
	st := NewState()
	var opt Options

	// Warm the scratch (first run sizes every array).
	if _, err := st.Run(cp.arch, cp.dg, cp.m, schedule.CrossLayer, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.Run(cp.arch, cp.dg, cp.m, schedule.CrossLayer, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 21 {
		t.Errorf("warm State.Run allocates %v objects per run, want <= 21", allocs)
	}

	if _, err := st.RunCoarse(cp.arch, cp.dg, cp.m, schedule.CrossLayer, opt); err != nil {
		t.Fatal(err)
	}
	coarse := testing.AllocsPerRun(10, func() {
		if _, err := st.RunCoarse(cp.arch, cp.dg, cp.m, schedule.CrossLayer, opt); err != nil {
			t.Fatal(err)
		}
	})
	if coarse != 0 {
		t.Errorf("warm State.RunCoarse allocates %v objects per run, want 0", coarse)
	}

	// A bounded window costs nothing extra: the plan is keyed by the
	// graph alone.
	x4 := schedule.Windowed(4)
	if _, err := st.RunCoarse(cp.arch, cp.dg, cp.m, x4, opt); err != nil {
		t.Fatal(err)
	}
	windowed := testing.AllocsPerRun(10, func() {
		if _, err := st.RunCoarse(cp.arch, cp.dg, cp.m, x4, opt); err != nil {
			t.Fatal(err)
		}
	})
	if windowed != 0 {
		t.Errorf("warm State.RunCoarse under x4 allocates %v objects per run, want 0", windowed)
	}

	// Alternating modes on one State reuses the one dispatch plan.
	alternating := testing.AllocsPerRun(10, func() {
		for _, p := range []schedule.Policy{schedule.LayerByLayer, x4, schedule.CrossLayer} {
			if _, err := st.RunCoarse(cp.arch, cp.dg, cp.m, p, opt); err != nil {
				t.Fatal(err)
			}
		}
	})
	if alternating != 0 {
		t.Errorf("State.RunCoarse alternating lbl, x4, xinf allocates %v objects per round, want 0", alternating)
	}
}
