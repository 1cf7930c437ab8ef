package schedule

import (
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

func TestMakespanRejectsBadInput(t *testing.T) {
	_, m, dg := compileDeps(t, models.TinyBranchNet, 16, 0, 4)
	var s Scratch
	if _, err := s.Makespan(dg, m.Dup, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
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
