package schedule

import (
	"runtime"
	"slices"
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
			got, err := s.Makespan(dg, m.Dup, p, Options{EdgeCost: e})
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Makespan {
				t.Errorf("%v edge=%t: makespan pass %d != Schedule %d", p, e != nil, got, want.Makespan)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := s.Makespan(dg, m.Dup, p, Options{EdgeCost: e}); err != nil {
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
// header). A per-set Item would cost five times as much. The test
// schedules on its own warm Scratch rather than Schedule's pooled one:
// sync.Pool may drop an item across a GC, and at random under -race,
// and a run that regrows the scratch is not the steady state.
func TestScheduleBytesPerSet(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyYOLOv4, 416, 32, sets.FineGranularity)
	ns, nl, reps := dg.CSR.NumSets(), len(dg.Plan.Layers), 0
	for _, ls := range dg.Plan.Layers {
		reps += ls.Group.Dup
	}
	limit := uint64(8*ns + 64*(nl+reps) + 16<<10)
	var s Scratch
	for _, p := range []Policy{LayerByLayer, Windowed(4), CrossLayer} {
		if _, err := s.schedule(dg, p, Options{}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.schedule(dg, p, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%v: Schedule allocates %d B for %d sets in %d layers (%.1f B/set), want at most %d",
				p, got, ns, nl, float64(got)/float64(ns), limit)
		}
	}
}

func TestMakespanRejectsBadInput(t *testing.T) {
	_, m, dg := compileDeps(t, models.TinyBranchNet, 16, 0, 4)
	var s Scratch
	if _, err := s.Makespan(&deps.Graph{}, m.Dup, CrossLayer, Options{}); err == nil {
		t.Error("graph without CSR accepted")
	}
	if _, err := s.Makespan(dg, m.Dup[1:], CrossLayer, Options{}); err == nil {
		t.Error("short duplication vector accepted")
	}
	bad := append([]int(nil), m.Dup...)
	bad[0] = 0
	if _, err := s.Makespan(dg, bad, CrossLayer, Options{}); err == nil {
		t.Error("zero duplication accepted")
	}
	if _, err := s.Makespan(dg, m.Dup, LayerByLayer, Options{Reload: []int64{1}}); err == nil {
		t.Error("short reload vector accepted")
	}
}

// TestJobExtendsSchedule: a job released at cycle 0 on replicas free
// from cycle 0 is Schedule's timeline, and reusing its timeline for a
// second job released at the first one's end, on the replica free
// times the first left, shifts it by exactly that end (the replicas
// are all idle by then), with or without a timeline to record into. Job
// rejects free times or a timeline shaped after another graph.
func TestJobExtendsSchedule(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyBranchNet, 16, 4, 4)
	reps := 0
	for _, ls := range dg.Plan.Layers {
		reps += ls.Group.Dup
	}
	var s Scratch
	for _, p := range []Policy{LayerByLayer, Windowed(2), CrossLayer} {
		want, err := Schedule(dg, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		free := make([]int64, reps)
		tl := NewTimeline(dg, p)
		start, end, err := s.Job(dg, p, nil, 0, free, tl)
		if err != nil {
			t.Fatal(err)
		}
		if !tl.Equal(want) || start != 0 || end != want.Makespan {
			t.Fatalf("%v: first job (start %d, end %d) differs from Schedule (makespan %d)", p, start, end, want.Makespan)
		}
		if start, end, err = s.Job(dg, p, nil, want.Makespan, free, tl); err != nil {
			t.Fatal(err)
		}
		if start != want.Makespan || end != 2*want.Makespan || !slices.Equal(tl.ReplicaActive[0], want.ReplicaActive[0]) {
			t.Fatalf("%v: second job (start %d, end %d), want [%d, %d]", p, start, end, want.Makespan, 2*want.Makespan)
		}
		for id, st := range tl.Items {
			if st != want.Items[id]+want.Makespan {
				t.Fatalf("%v: second job set %d starts at %d, want %d", p, id, st, want.Items[id]+want.Makespan)
			}
		}
	}
	// Without a timeline Job returns the same bounds and, warm,
	// allocates nothing.
	free := make([]int64, reps)
	for _, p := range []Policy{LayerByLayer, Windowed(2), CrossLayer} {
		want, err := Schedule(dg, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		clear(free)
		for job := int64(0); job < 2; job++ {
			start, end, err := s.Job(dg, p, nil, 1+job*want.Makespan, free, nil)
			if err != nil {
				t.Fatal(err)
			}
			if start != 1+job*want.Makespan || end != 1+(job+1)*want.Makespan {
				t.Fatalf("%v: job %d without a timeline: [%d, %d], want [%d, %d]",
					p, job, start, end, 1+job*want.Makespan, 1+(job+1)*want.Makespan)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		clear(free)
		if _, _, err := s.Job(dg, CrossLayer, nil, 0, free, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Job without a timeline allocates %v objects per run, want 0", allocs)
	}
	if _, _, err := s.Job(dg, CrossLayer, nil, 0, make([]int64, reps-1), NewTimeline(dg, CrossLayer)); err == nil {
		t.Error("short free-time vector accepted")
	}
	if _, _, err := s.Job(dg, CrossLayer, nil, 0, make([]int64, reps), &Timeline{}); err == nil {
		t.Error("timeline of another shape accepted")
	}
}
