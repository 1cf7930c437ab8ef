package check_test

import (
	"errors"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
)

// shiftTimeline returns a deep copy of tl with every item (and the
// makespan) translated by dt cycles — the timeline of a later inference
// of the same compilation in absolute stream time.
func shiftTimeline(tl *schedule.Timeline, dt int64) *schedule.Timeline {
	c := copyTimeline(tl)
	for i := range c.Items {
		c.Items[i] += dt
	}
	c.Makespan += dt
	return c
}

// serialStream builds a trivially legal stream: n inferences of one
// compilation executed strictly back to back, each arriving exactly
// when the previous one finishes.
func serialStream(t *testing.T, c compiled, p schedule.Policy, n int) ([]check.StreamModel, []check.StreamInference) {
	t.Helper()
	tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := []check.StreamModel{{Graph: c.dg, Mapping: c.m, Policy: p}}
	var infs []check.StreamInference
	for j := 0; j < n; j++ {
		dt := int64(j) * tl.Makespan
		infs = append(infs, check.StreamInference{Arrival: dt, Timeline: shiftTimeline(tl, dt)})
	}
	return ms, infs
}

func TestStreamAcceptsSerialExecution(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 0, 8)
	for _, p := range policies() {
		ms, infs := serialStream(t, c, p, 3)
		if err := check.Stream(ms, infs, check.StreamOptions{}); err != nil {
			t.Fatalf("%s: legal serial stream rejected: %v", p.Name(), err)
		}
		// A serial stream trivially satisfies any gate depth.
		if err := check.Stream(ms, infs, check.StreamOptions{MaxInFlight: 1}); err != nil {
			t.Fatalf("%s: gate 1 rejected a serial stream: %v", p.Name(), err)
		}
	}
}

func TestStreamAcceptsDisjointPools(t *testing.T) {
	// Two different models on disjoint PE pools may overlap freely in
	// time.
	a := compile(t, models.TinyYOLOv4, 0, 8)
	b := compile(t, models.TinyYOLOv3, 0, 8)
	p := schedule.CrossLayer
	ta, err := schedule.Schedule(a.dg, p, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := schedule.Schedule(b.dg, p, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := []check.StreamModel{
		{Graph: a.dg, Mapping: a.m, Policy: p},
		{Graph: b.dg, Mapping: b.m, Policy: p, PEBase: a.m.F},
	}
	infs := []check.StreamInference{
		{Model: 0, Timeline: ta},
		{Model: 1, Timeline: tb},
	}
	if err := check.Stream(ms, infs, check.StreamOptions{}); err != nil {
		t.Fatalf("disjoint pools rejected: %v", err)
	}
	// The same two timelines on one shared pool collide wherever the
	// mappings share a PE.
	ms[1].PEBase = 0
	err = check.Stream(ms, infs, check.StreamOptions{})
	var v *check.Violation
	if !errors.As(err, &v) || v.Kind != check.KindExclusivity {
		t.Fatalf("shared pool overlap: got %v, want %s violation", err, check.KindExclusivity)
	}
}

func TestStreamRejectsOverlapOnSharedReplicas(t *testing.T) {
	// Two concurrent inferences of the same model share every replica
	// PE group; unshifted copies overlap on all of them.
	c := compile(t, models.TinyYOLOv4, 0, 8)
	p := schedule.CrossLayer
	ms, infs := serialStream(t, c, p, 2)
	infs[1] = check.StreamInference{Arrival: 0, Timeline: shiftTimeline(infs[0].Timeline, 0)}
	err := check.Stream(ms, infs, check.StreamOptions{})
	var v *check.Violation
	if !errors.As(err, &v) || v.Kind != check.KindExclusivity {
		t.Fatalf("got %v, want %s violation", err, check.KindExclusivity)
	}
}

func TestStreamRejectsStartBeforeArrival(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 0, 8)
	ms, infs := serialStream(t, c, schedule.CrossLayer, 1)
	infs[0].Arrival = 10 // the timeline starts at 0
	err := check.Stream(ms, infs, check.StreamOptions{})
	var v *check.Violation
	if !errors.As(err, &v) || v.Kind != check.KindArrival {
		t.Fatalf("got %v, want %s violation", err, check.KindArrival)
	}
}

func TestStreamGate(t *testing.T) {
	// Build a genuinely pipelined two-inference stream with no replica
	// overlap: under lbl each layer occupies one contiguous busy
	// interval, so shifting the whole timeline by the longest layer
	// duration slides every interval past its twin. The result is legal
	// without a gate (and proves the checker accepts cross-inference
	// overlap), but inference 1 starts before inference 0 completes, so
	// a gate of 1 must trip — and trip as a gate violation, not as an
	// exclusivity one.
	c := compile(t, models.TinyYOLOv4, 0, 8)
	p := schedule.LayerByLayer
	tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dt int64
	for li := 0; li < tl.NumLayers(); li++ {
		if d := tl.EndOf(li) - tl.StartOf(li); d > dt {
			dt = d
		}
	}
	if dt >= tl.Makespan {
		t.Fatalf("degenerate fixture: longest layer %d spans the whole makespan %d", dt, tl.Makespan)
	}
	ms := []check.StreamModel{{Graph: c.dg, Mapping: c.m, Policy: p}}
	infs := []check.StreamInference{
		{Timeline: copyTimeline(tl)},
		{Arrival: dt, Timeline: shiftTimeline(tl, dt)},
	}
	if err := check.Stream(ms, infs, check.StreamOptions{}); err != nil {
		t.Fatalf("legal pipelined stream rejected: %v", err)
	}
	err = check.Stream(ms, infs, check.StreamOptions{MaxInFlight: 1})
	var v *check.Violation
	if !errors.As(err, &v) || v.Kind != check.KindGate {
		t.Fatalf("got %v, want %s violation", err, check.KindGate)
	}
}
