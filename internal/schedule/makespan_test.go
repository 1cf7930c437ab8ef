package schedule

import (
	"runtime"
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/models"
	"clsacim/internal/sets"
)

// TestMakespanAllocs pins the scored solver's hot path: once a Scratch
// has scheduled a workload, the makespan pass allocates nothing, with
// or without an edge cost, under every admission window.
func TestMakespanAllocs(t *testing.T) {
	_, m, dg := compileDeps(t, models.TinyYOLOv4, 128, 16, sets.FineGranularity)
	edge := func(pred deps.SetRef, toLayer int) int64 { return int64(pred.Vol%7) + int64(toLayer%3) }
	var s Scratch
	for _, p := range []Policy{LayerByLayer, Windowed(4), CrossLayer} {
		for _, e := range []EdgeCostFn{nil, edge} {
			want, err := Schedule(dg, p, Options{EdgeCost: e})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Makespan(dg, m.Dup, p, e)
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Makespan {
				t.Errorf("%v edge=%t: makespan pass %d != Schedule %d", p, e != nil, got, want.Makespan)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := s.Makespan(dg, m.Dup, p, e); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v edge=%t: warm makespan pass allocates %v objects per run, want 0", p, e != nil, allocs)
			}
		}
	}
}

// TestScheduleBytesPerSet pins the compact timeline: a warm Schedule
// allocates one 8-byte start cycle per set, plus per-layer activity rows
// and a constant (page rounding of the start array, the Timeline
// header). A per-set Item would cost five times as much.
func TestScheduleBytesPerSet(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyYOLOv4, 416, 32, sets.FineGranularity)
	ns, nl, reps := dg.CSR.NumSets(), len(dg.Plan.Layers), 0
	for _, ls := range dg.Plan.Layers {
		reps += ls.Group.Dup
	}
	limit := uint64(8*ns + 64*(nl+reps) + 16<<10)
	for _, p := range []Policy{LayerByLayer, Windowed(4), CrossLayer} {
		// The least of several runs: sync.Pool may drop the scheduler's
		// scratch (always possible across a GC, randomly under -race),
		// and a run that regrows it is not the steady state.
		least := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&before)
			if _, err := Schedule(dg, p, Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > limit {
			t.Errorf("%v: Schedule allocates %d B for %d sets in %d layers (%.1f B/set), want at most %d",
				p, least, ns, nl, float64(least)/float64(ns), limit)
		}
	}
}

func TestMakespanRejectsBadInput(t *testing.T) {
	_, m, dg := compileDeps(t, models.TinyBranchNet, 16, 0, 4)
	var s Scratch
	if _, err := s.Makespan(&deps.Graph{}, m.Dup, CrossLayer, nil); err == nil {
		t.Error("graph without CSR accepted")
	}
	if _, err := s.Makespan(dg, m.Dup[1:], CrossLayer, nil); err == nil {
		t.Error("short duplication vector accepted")
	}
	bad := append([]int(nil), m.Dup...)
	bad[0] = 0
	if _, err := s.Makespan(dg, bad, CrossLayer, nil); err == nil {
		t.Error("zero duplication accepted")
	}
}
