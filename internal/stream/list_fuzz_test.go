package stream

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
)

// FuzzStreamListVsEvents is the differential oracle of the two stream
// engines: on conflict-free workloads the job-by-job Stage IV path
// (runList) must return a Result deep-equal to the event loop's
// (RunEvents, the entry package sim runs single inferences through). The
// inputs pick a RandomCNN or builtin graph at coarse or fine
// granularity, one model (offset inside a larger fabric) or two models
// on disjoint pools, a window (lbl, xK, xinf), an edge cost, closed-loop
// concurrency or open-loop arrival gaps (ties included), the admission
// gate, and whether timelines are kept. When they are, both results'
// PE activity is recounted from their timelines (checkPEActive).
func FuzzStreamListVsEvents(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0), byte(3), byte(0), byte(0), false, byte(1), byte(0), byte(5))
	f.Add(int64(2), byte(1), byte(4), byte(7), byte(1), byte(1), true, byte(6), byte(2), byte(7))
	f.Add(int64(3), byte(0), byte(2), byte(0), byte(1), byte(3), false, byte(3), byte(1), byte(9))
	f.Add(int64(4), byte(2), byte(0), byte(1), byte(0), byte(0), true, byte(2), byte(3), byte(4))
	f.Add(int64(5), byte(3), byte(0), byte(2), byte(1), byte(2), false, byte(7), byte(0), byte(6))
	f.Add(int64(6), byte(2), byte(1), byte(2), byte(0), byte(0), false, byte(3), byte(0), byte(3))
	f.Add(int64(7), byte(2), byte(1), byte(0), byte(0), byte(1), true, byte(4), byte(2), byte(3))
	f.Add(int64(8), byte(1), byte(3), byte(9), byte(0), byte(4), true, byte(0), byte(1), byte(11))
	// Two models in a closed loop retire out of issue order, so the
	// arrivals depend on the end-time heap popping in time order.
	f.Add(int64(9), byte(2), byte(0), byte(1), byte(1), byte(0), false, byte(6), byte(0), byte(11))
	f.Add(int64(10), byte(0), byte(2), byte(4), byte(1), byte(0), false, byte(4), byte(0), byte(11))
	f.Add(int64(11), byte(1), byte(3), byte(0), byte(1), byte(0), true, byte(6), byte(0), byte(10))
	f.Fuzz(func(t *testing.T, seed int64, src, gran, extra, nmodels, window byte, edge bool, arrival, gate, jobs byte) {
		c := fuzzCompile(t, seed, src, gran, extra)
		p := schedule.CrossLayer
		switch k := int(window) % 6; {
		case k == 1:
			p = schedule.LayerByLayer
		case k > 1:
			p = schedule.Windowed(k)
		}
		var cost schedule.EdgeCostFn
		if edge {
			cost = func(pred deps.SetRef, toLayer int) int64 { return int64(pred.Vol%5) + int64(toLayer-pred.Layer) }
		}
		n := 1 + int(jobs)%12
		w := Workload{FabricPEs: c.m.F + 3, Models: []ModelSpec{{Graph: c.dg, Mapping: c.m, Policy: p, Edge: cost, PEBase: 3}}}
		if nmodels%2 == 1 {
			d := fuzzCompile(t, seed+1, src+1, gran, extra/2)
			w.Models[0].PEBase = 0
			w.Models = append(w.Models, ModelSpec{Graph: d.dg, Mapping: d.m, Policy: p, Edge: cost, PEBase: c.m.F})
			w.FabricPEs = c.m.F + d.m.F
		}
		r := rand.New(rand.NewSource(seed))
		w.Sequence = make([]int, n)
		for j := range w.Sequence {
			w.Sequence[j] = r.Intn(len(w.Models))
		}
		if arrival%2 == 0 {
			w.Concurrency = 1 + int(arrival/2)%4
		} else {
			span, err := schedule.Schedule(c.dg, p, schedule.Options{})
			if err != nil {
				t.Fatal(err)
			}
			w.Arrivals = make([]int64, n)
			var at int64
			for j := range w.Arrivals {
				if r.Intn(3) > 0 {
					at += r.Int63n(span.Makespan/int64(1+arrival%4) + 1)
				}
				w.Arrivals[j] = at
			}
		}
		opt := Options{MaxInFlight: int(gate) % 4, DropTimelines: seed%2 == 0}
		if err := validate(w, opt); err != nil {
			t.Fatalf("generated workload rejected: %v", err)
		}
		if !conflictFree(w.Models) {
			t.Fatal("generated workload has a shared PE")
		}
		got, err := runList(w, opt)
		if err != nil {
			t.Fatalf("list path: %v", err)
		}
		want, err := RunEvents(w, opt)
		if err != nil {
			t.Fatalf("event loop: %v", err)
		}
		if !opt.DropTimelines {
			checkPEActive(t, w, got)
			checkPEActive(t, w, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("list path and event loop disagree (makespan %d vs %d)\nlist jobs  %v\nevent jobs %v\nlist queue  %v\nevent queue %v",
				got.MakespanCycles, want.MakespanCycles, got.Jobs, want.Jobs, got.Queue, want.Queue)
		}
	})
}

type fuzzCompiled struct {
	m  *mapping.Mapping
	dg *deps.Graph
}

// builtinCache keeps compiled builtin graphs across fuzz iterations: a
// fine-granularity TinyYOLO costs far more to compile than to stream.
var builtinCache sync.Map

// fuzzCompile compiles a RandomCNN (src 0 and 1 mod 4) or a builtin
// TinyYOLO (src 2 and 3) graph, spending the extra PEs on weight
// duplication. Random graphs take one of five granularities, builtin
// ones coarse or fine.
func fuzzCompile(t *testing.T, seed int64, src, gran, extra byte) fuzzCompiled {
	t.Helper()
	var g *nn.Graph
	var err error
	pe := im2col.PEDims{Rows: 64, Cols: 64}
	target := []int{1, 3, 9, 27, sets.FineGranularity}[int(gran)%5]
	x := int(extra) % 12
	var key any
	if src%4 >= 2 {
		id := []models.ID{models.TinyYOLOv4, models.TinyYOLOv3}[src%2]
		pe = im2col.PEDims{Rows: 256, Cols: 256}
		target = []int{26, sets.FineGranularity}[gran%2]
		x = []int{0, 8, 32}[int(extra)%3]
		key = [3]int{int(src % 2), target, x}
		if c, ok := builtinCache.Load(key); ok {
			return c.(fuzzCompiled)
		}
		g = models.MustBuild(id, models.Options{})
	} else if g, err = models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: 2 + int(seed&7)%6, MaxInput: 24}); err != nil {
		t.Fatalf("generator: %v", err)
	}
	c := compileGraph(t, g, pe, target, x)
	if key != nil {
		builtinCache.Store(key, c)
	}
	return c
}

// compileGraph runs g through the shape-only compilation pipeline on
// crossbars of size pe at the given Stage I granularity, spending x
// extra PEs on weight duplication.
func compileGraph(t *testing.T, g *nn.Graph, pe im2col.PEDims, target, x int) fuzzCompiled {
	t.Helper()
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	plan, err := mapping.Analyze(g, pe)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	solver := mapping.SolverNone
	if x > 0 {
		solver = mapping.SolverDP
	}
	sol, err := mapping.Solve(plan, plan.MinPEs+x, solver)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs+x)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: target})
	if err != nil {
		t.Fatalf("stage I: %v", err)
	}
	dg, err := deps.Build(g, sp)
	if err != nil {
		t.Fatalf("stage II: %v", err)
	}
	return fuzzCompiled{m: m, dg: dg}
}
