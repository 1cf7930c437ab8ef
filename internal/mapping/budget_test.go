package mapping

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"clsacim/internal/models"
)

// TestSolveDPClampMatchesUnclamped: beyond dupCap no extra PE can hold
// a replica, so the DP over the clamped budget must return exactly the
// solution of the DP over the full budget, at the cap and past it.
func TestSolveDPClampMatchesUnclamped(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		plan := randomPlan(r, 1+r.Intn(8))
		limit := plan.MinPEs + dupCap(plan)
		for _, f := range []int{limit, limit + 1, limit + 500} {
			got := solveDP(plan, f)
			want := solveDPBudget(plan, f-plan.MinPEs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, F = cap%+d: clamped %+v, unclamped %+v",
					trial, f-limit, got, want)
			}
			for i, d := range got.D {
				if d != MaxDup(plan.Layers[i]) {
					t.Fatalf("trial %d, F = cap%+d: layer %d at d = %d, want MaxDup %d",
						trial, f-limit, i, d, MaxDup(plan.Layers[i]))
				}
			}
		}
	}
}

// TestSolveDPHugeBudgetSmallAllocs: a budget of 2e8 extra PEs solves
// without a table sized by F (unclamped, the choice table alone would
// take 8·n·2e8 bytes).
func TestSolveDPHugeBudgetSmallAllocs(t *testing.T) {
	g := canonicalModel(t, models.TinyYOLOv4, models.Options{})
	plan, err := Analyze(g, pe256)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol, err := Solve(plan, plan.MinPEs+200_000_000, SolverDP)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Errorf("Solve allocated %d bytes, want at most 16 MiB", got)
	}
	for i, d := range sol.D {
		if d != MaxDup(plan.Layers[i]) {
			t.Errorf("layer %d at d = %d, want MaxDup %d", i, d, MaxDup(plan.Layers[i]))
		}
	}
}
