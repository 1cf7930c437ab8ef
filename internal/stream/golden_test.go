package stream_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/stream"
)

var update = flag.Bool("update", false, "rewrite the per-job stream goldens under testdata")

// TestGoldenJobTimings pins every job's (Start, End) and a hash of every
// item start across the engine's scheduling situations: the three
// policy families, closed and Poisson arrivals, an admission gate, a
// shared two-model pool (the event loop's workload; every other case
// takes the Stage IV recurrence), a non-nil edge cost, and
// weight-duplicated mappings whose replica groups wake one another.
// Either scheduler is free to do less work, never to move a set. Each case also
// reruns under DropTimelines, which must change nothing but Timelines.
//
// Regenerate after an intentional timing change with
//
//	go test ./internal/stream -run TestGoldenJobTimings -update
func TestGoldenJobTimings(t *testing.T) {
	y4 := compile(t, models.TinyYOLOv4, 26, 16)
	y3 := compile(t, models.TinyYOLOv3, 26, 8)
	fine := compile(t, models.TinyYOLOv4, sets.FineGranularity, 32)
	edge := func(pred deps.SetRef, toLayer int) int64 {
		return int64(pred.Vol%7) + int64(toLayer-pred.Layer)
	}
	poisson := func(seed uint64, n int, mean float64) []int64 {
		arr, err := stream.PoissonArrivals(seed, n, mean)
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	mix, err := stream.ModelSequence(7, 6, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	y4Span := singleMakespan(t, y4, schedule.CrossLayer)
	shared := y4.m.F
	if y3.m.F > shared {
		shared = y3.m.F
	}
	withEdge := spec(y4, schedule.CrossLayer, 0)
	withEdge.Edge = edge
	cases := []struct {
		name string
		w    stream.Workload
		opt  stream.Options
	}{
		{"lbl-closed-c2", stream.Workload{FabricPEs: y4.m.F,
			Models: []stream.ModelSpec{spec(y4, schedule.LayerByLayer, 0)}, Sequence: repeat(0, 4), Concurrency: 2}, stream.Options{}},
		{"x2-poisson", stream.Workload{FabricPEs: y4.m.F,
			Models:   []stream.ModelSpec{spec(y4, schedule.Windowed(2), 0)},
			Sequence: repeat(0, 5), Arrivals: poisson(5, 5, float64(y4Span)/2)}, stream.Options{}},
		{"xinf-closed-c3-gate2", stream.Workload{FabricPEs: y4.m.F,
			Models: []stream.ModelSpec{spec(y4, schedule.CrossLayer, 0)}, Sequence: repeat(0, 6), Concurrency: 3}, stream.Options{MaxInFlight: 2}},
		{"xinf-poisson-gate2", stream.Workload{FabricPEs: y4.m.F,
			Models:   []stream.ModelSpec{spec(y4, schedule.CrossLayer, 0)},
			Sequence: repeat(0, 6), Arrivals: poisson(11, 6, float64(y4Span)/4)}, stream.Options{MaxInFlight: 2}},
		{"xinf-shared-pool", stream.Workload{FabricPEs: shared,
			Models:   []stream.ModelSpec{spec(y4, schedule.CrossLayer, 0), spec(y3, schedule.CrossLayer, 0)},
			Sequence: mix, Arrivals: poisson(3, 6, float64(y4Span)/3)}, stream.Options{}},
		{"xinf-edge-closed-c2", stream.Workload{FabricPEs: y4.m.F,
			Models: []stream.ModelSpec{withEdge}, Sequence: repeat(0, 4), Concurrency: 2}, stream.Options{}},
		{"xinf-fine-closed-c4", stream.Workload{FabricPEs: fine.m.F,
			Models: []stream.ModelSpec{spec(fine, schedule.CrossLayer, 0)}, Sequence: repeat(0, 6), Concurrency: 4}, stream.Options{}},
	}
	var got bytes.Buffer
	for _, tc := range cases {
		res, err := runChecked(t, tc.w, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lean := tc.opt
		lean.DropTimelines = true
		dropped, err := stream.Run(tc.w, lean)
		if err != nil {
			t.Fatalf("%s: DropTimelines: %v", tc.name, err)
		}
		if dropped.Timelines != nil || dropped.MakespanCycles != res.MakespanCycles ||
			!reflect.DeepEqual(dropped.Jobs, res.Jobs) || !reflect.DeepEqual(dropped.Queue, res.Queue) ||
			!reflect.DeepEqual(dropped.PEActive, res.PEActive) {
			t.Errorf("%s: a DropTimelines run differs from the run that keeps timelines", tc.name)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, tl := range res.Timelines {
			for _, start := range tl.Items {
				binary.LittleEndian.PutUint64(buf[:], uint64(start))
				h.Write(buf[:])
			}
		}
		fmt.Fprintf(&got, "%s makespan=%d starts=%016x\n", tc.name, res.MakespanCycles, h.Sum64())
		for j, js := range res.Jobs {
			fmt.Fprintf(&got, "  job %d model %d arrival %d start %d end %d\n", j, js.Model, js.Arrival, js.Start, js.End)
		}
	}
	path := filepath.Join("testdata", "jobs.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("per-job stream timings drifted from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
