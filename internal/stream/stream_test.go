package stream_test

import (
	"strings"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/stream"
)

// runChecked runs the workload and revalidates the result from scratch
// against check.Stream, the oracle this package leaves to its callers;
// a violation fails the test.
func runChecked(t *testing.T, w stream.Workload, opt stream.Options) (*stream.Result, error) {
	t.Helper()
	res, err := stream.Run(w, opt)
	if err != nil {
		return nil, err
	}
	ms := make([]check.StreamModel, len(w.Models))
	for mi, s := range w.Models {
		ms[mi] = check.StreamModel{Graph: s.Graph, Mapping: s.Mapping, Policy: s.Policy, Edge: s.Edge, PEBase: s.PEBase}
	}
	infs := make([]check.StreamInference, len(res.Jobs))
	for j, js := range res.Jobs {
		infs[j] = check.StreamInference{Model: js.Model, Arrival: js.Arrival, Timeline: res.Timelines[j]}
	}
	if err := check.Stream(ms, infs, check.StreamOptions{MaxInFlight: opt.MaxInFlight}); err != nil {
		t.Fatalf("check.Stream: %v", err)
	}
	return res, nil
}

type compiled struct {
	m  *mapping.Mapping
	dg *deps.Graph
}

// compile runs the shape-only compilation pipeline for one builtin
// model; extra PEs beyond PEmin are spent on weight duplication.
func compile(t *testing.T, id models.ID, targetSets, extra int) compiled {
	t.Helper()
	g := models.MustBuild(id, models.Options{})
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 256, Cols: 256})
	if err != nil {
		t.Fatal(err)
	}
	solver := mapping.SolverNone
	if extra > 0 {
		solver = mapping.SolverDP
	}
	sol, err := mapping.Solve(plan, plan.MinPEs+extra, solver)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extra)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: targetSets})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := deps.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return compiled{m: m, dg: dg}
}

func spec(c compiled, p schedule.Policy, base int) stream.ModelSpec {
	return stream.ModelSpec{Graph: c.dg, Mapping: c.m, Policy: p, PEBase: base}
}

func singleMakespan(t *testing.T, c compiled, p schedule.Policy) int64 {
	t.Helper()
	tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tl.Makespan
}

func repeat(mi, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = mi
	}
	return s
}

// A closed loop with concurrency 1 is back-to-back serial execution:
// each job's timeline must be the analytic single-inference schedule
// translated by the predecessor's completion, and the stream makespan
// exactly n single makespans. runChecked runs check.Stream on the way.
func TestClosedLoopSerialMatchesSchedule(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8, 0)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(2), schedule.CrossLayer} {
		single, err := schedule.Schedule(c.dg, p, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 3
		res, err := runChecked(t, stream.Workload{
			FabricPEs:   c.m.F,
			Models:      []stream.ModelSpec{spec(c, p, 0)},
			Sequence:    repeat(0, n),
			Concurrency: 1,
		}, stream.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if want := int64(n) * single.Makespan; res.MakespanCycles != want {
			t.Fatalf("%s: serial stream makespan %d, want %d", p.Name(), res.MakespanCycles, want)
		}
		for j, tl := range res.Timelines {
			dt := int64(j) * single.Makespan
			for i := range tl.Items {
				it, ref := tl.Item(i), single.Item(i)
				if it.Start != ref.Start+dt || it.End != ref.End+dt || it.Replica != ref.Replica {
					t.Fatalf("%s: job %d item %d = %+v, want %+v shifted by %d", p.Name(), j, i, it, ref, dt)
				}
			}
			if res.Jobs[j].Arrival != dt || res.Jobs[j].End != dt+single.Makespan {
				t.Fatalf("%s: job %d lifecycle %+v", p.Name(), j, res.Jobs[j])
			}
		}
	}
}

// Pipelining is the point of the subsystem: with several inferences in
// flight under xinf, the stream must finish strictly faster than the
// same jobs run serially (throughput > 1/makespan).
func TestPipelinedBeatsSerial(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8, 0)
	single := singleMakespan(t, c, schedule.CrossLayer)
	const n = 6
	res, err := runChecked(t, stream.Workload{
		FabricPEs:   c.m.F,
		Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:    repeat(0, n),
		Concurrency: 4,
	}, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanCycles >= int64(n)*single {
		t.Fatalf("pipelined makespan %d not better than serial %d", res.MakespanCycles, int64(n)*single)
	}
}

// An admission gate of 1 forces one inference in flight per model, so
// the closed loop degenerates to serial execution no matter the
// concurrency.
func TestGateSerializes(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8, 0)
	single := singleMakespan(t, c, schedule.CrossLayer)
	const n = 4
	res, err := runChecked(t, stream.Workload{
		FabricPEs:   c.m.F,
		Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:    repeat(0, n),
		Concurrency: 4,
	}, stream.Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * single; res.MakespanCycles != want {
		t.Fatalf("gated stream makespan %d, want serial %d", res.MakespanCycles, want)
	}
}

// Two models on disjoint pools run fully independently: the mixed
// stream's makespan equals the slower of the two private streams.
func TestDisjointPoolsAreIndependent(t *testing.T) {
	a := compile(t, models.TinyYOLOv4, 8, 0)
	b := compile(t, models.TinyYOLOv3, 8, 0)
	p := schedule.CrossLayer
	seq := []int{0, 1, 0, 1}
	arr := []int64{0, 0, 0, 0}
	res, err := runChecked(t, stream.Workload{
		FabricPEs: a.m.F + b.m.F,
		Models:    []stream.ModelSpec{spec(a, p, 0), spec(b, p, a.m.F)},
		Sequence:  seq,
		Arrivals:  arr,
	}, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * singleMakespan(t, a, p)
	if w2 := 2 * singleMakespan(t, b, p); w2 > want {
		want = w2
	}
	if res.MakespanCycles > want {
		t.Fatalf("disjoint-pool makespan %d, want <= %d (independent streams)", res.MakespanCycles, want)
	}
}

// Two models time-sharing one crossbar pool must interleave without
// ever overlapping on a shared PE — the acceptance-criteria
// differential test: runChecked revalidates every timeline through
// check.Stream, including cross-model exclusivity on the shared pool.
func TestSharedPoolTwoModelsValidated(t *testing.T) {
	a := compile(t, models.TinyYOLOv4, 8, 0)
	b := compile(t, models.TinyYOLOv3, 8, 0)
	p := schedule.CrossLayer
	fabric := a.m.F
	if b.m.F > fabric {
		fabric = b.m.F
	}
	res, err := runChecked(t, stream.Workload{
		FabricPEs: fabric,
		Models:    []stream.ModelSpec{spec(a, p, 0), spec(b, p, 0)},
		Sequence:  []int{0, 1, 0, 1},
		Arrivals:  []int64{0, 0, 1000, 1000},
	}, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanCycles <= 0 {
		t.Fatal("empty shared-pool run")
	}
	floor := 2*singleMakespan(t, a, p) + 2*singleMakespan(t, b, p)
	if res.MakespanCycles > floor {
		t.Fatalf("shared-pool makespan %d worse than fully serial %d", res.MakespanCycles, floor)
	}
}

// Open-loop runs respect arrival times and record the queue trace.
func TestOpenLoopArrivals(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8, 0)
	arr, err := stream.PoissonArrivals(3, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runChecked(t, stream.Workload{
		FabricPEs: c.m.F,
		Models:    []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:  repeat(0, len(arr)),
		Arrivals:  arr,
	}, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, js := range res.Jobs {
		if js.Arrival != arr[j] {
			t.Fatalf("job %d arrival %d, want %d", j, js.Arrival, arr[j])
		}
		if js.Start < js.Arrival || js.End < js.Start {
			t.Fatalf("job %d lifecycle out of order: %+v", j, js)
		}
	}
	if len(res.Queue) == 0 {
		t.Fatal("no queue trace")
	}
	depth := 0
	for i, qs := range res.Queue {
		if i > 0 && qs.Time < res.Queue[i-1].Time {
			t.Fatalf("queue trace out of order at %d", i)
		}
		if qs.Depth < 0 || qs.Depth > len(arr) {
			t.Fatalf("queue depth %d out of range", qs.Depth)
		}
		depth = qs.Depth
	}
	if depth != 0 {
		t.Fatalf("queue not drained: final depth %d", depth)
	}
}

func TestRunRejectsBadWorkloads(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8, 0)
	good := stream.Workload{
		FabricPEs:   c.m.F,
		Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:    []int{0},
		Concurrency: 1,
	}
	cases := []struct {
		name string
		mut  func(w *stream.Workload, o *stream.Options)
		want string
	}{
		{"no models", func(w *stream.Workload, o *stream.Options) { w.Models = nil }, "no models"},
		{"small fabric", func(w *stream.Workload, o *stream.Options) { w.FabricPEs = 1 }, "outside fabric"},
		{"bad model index", func(w *stream.Workload, o *stream.Options) { w.Sequence = []int{2} }, "names model"},
		{"no jobs", func(w *stream.Workload, o *stream.Options) { w.Sequence = nil }, "empty job sequence"},
		{"no concurrency", func(w *stream.Workload, o *stream.Options) { w.Concurrency = 0 }, "Concurrency"},
		{"unsorted arrivals", func(w *stream.Workload, o *stream.Options) {
			w.Sequence = []int{0, 0}
			w.Arrivals = []int64{5, 1}
		}, "not sorted"},
		{"negative gate", func(w *stream.Workload, o *stream.Options) { o.MaxInFlight = -1 }, "negative admission gate"},
	}
	for _, tc := range cases {
		w, o := good, stream.Options{}
		tc.mut(&w, &o)
		_, err := stream.Run(w, o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}
