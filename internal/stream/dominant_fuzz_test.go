package stream

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/deps"
	"clsacim/internal/im2col"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
)

// zeroEdge is an idealized edge cost that is not nil: it costs nothing,
// like a nil one, but makes both schedulers walk every edge of the full
// CSR instead of the dominant view (deps.Graph.Dominant).
func zeroEdge(deps.SetRef, int) int64 { return 0 }

// FuzzStreamDominantVsFull is the differential oracle of the dominant
// view: every workload runs through Run and through RunEvents, each
// once with a nil edge cost (the dominant view) and once with zeroEdge
// (the full CSR), and the four Results must be deep-equal, with and
// without timelines; check.Stream revalidates the timelines. The inputs
// pick one to three RandomCNN or TinyBranchNet models at one of five
// granularities with weight duplication, on disjoint PE ranges or one
// shared pool, an lbl, x2 or xinf window, closed-loop concurrency or
// Poisson arrivals, and an admission gate of 0 to 3. On shared pools
// both runs take the event loop, so this is an exact oracle for it.
func FuzzStreamDominantVsFull(f *testing.F) {
	f.Add(int64(1), byte(0), byte(4), byte(6), byte(0), false, byte(2), byte(0), byte(0), byte(5))
	f.Add(int64(2), byte(1), byte(4), byte(9), byte(1), true, byte(2), byte(1), byte(1), byte(8))
	f.Add(int64(3), byte(0), byte(3), byte(11), byte(2), true, byte(1), byte(2), byte(2), byte(9))
	f.Add(int64(4), byte(1), byte(2), byte(4), byte(1), false, byte(0), byte(3), byte(3), byte(7))
	f.Add(int64(5), byte(2), byte(4), byte(7), byte(2), false, byte(2), byte(4), byte(0), byte(11))
	f.Add(int64(6), byte(3), byte(4), byte(10), byte(1), true, byte(0), byte(6), byte(1), byte(6))
	f.Add(int64(7), byte(1), byte(1), byte(5), byte(2), true, byte(2), byte(5), byte(0), byte(10))
	f.Fuzz(func(t *testing.T, seed int64, src, gran, extra, nmodels byte, shared bool, window, arrival, gate, jobs byte) {
		p := []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(2), schedule.CrossLayer}[window%3]
		w := Workload{}
		for k := 0; k <= int(nmodels)%3; k++ {
			c := dominantCompile(t, seed+int64(k), src+byte(k), gran, extra+byte(3*k))
			base := w.FabricPEs
			if shared {
				base = 0
			}
			w.Models = append(w.Models, ModelSpec{Graph: c.dg, Mapping: c.m, Policy: p, PEBase: base})
			w.FabricPEs = max(w.FabricPEs, base+c.m.F)
		}
		n := 1 + int(jobs)%12
		r := rand.New(rand.NewSource(seed))
		w.Sequence = make([]int, n)
		for j := range w.Sequence {
			w.Sequence[j] = r.Intn(len(w.Models))
		}
		if arrival%2 == 0 {
			w.Concurrency = 1 + int(arrival/2)%4
		} else {
			span, err := schedule.Schedule(w.Models[0].Graph, p, schedule.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mean := float64(span.Makespan) / float64(1+arrival%4)
			if w.Arrivals, err = PoissonArrivals(uint64(seed), n, max(mean, 1)); err != nil {
				t.Fatal(err)
			}
		}
		withEdge := func(edge schedule.EdgeCostFn) Workload {
			v := w
			v.Models = append([]ModelSpec(nil), w.Models...)
			for mi := range v.Models {
				v.Models[mi].Edge = edge
			}
			return v
		}
		for _, drop := range []bool{false, true} {
			opt := Options{MaxInFlight: int(gate) % 4, DropTimelines: drop}
			var want *Result
			for _, run := range []func(Workload, Options) (*Result, error){Run, RunEvents} {
				for _, edge := range []schedule.EdgeCostFn{zeroEdge, nil} {
					got, err := run(withEdge(edge), opt)
					if err != nil {
						t.Fatalf("edge %v drop %v: %v", edge != nil, drop, err)
					}
					if want == nil {
						want = got
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("edge %v drop %v: results differ from the full CSR's (makespan %d vs %d)\ngot jobs  %v\nwant jobs %v",
							edge != nil, drop, got.MakespanCycles, want.MakespanCycles, got.Jobs, want.Jobs)
					}
				}
			}
			if !drop {
				checkStream(t, w, opt, want)
			}
		}
	})
}

// dominantCompile compiles a RandomCNN (even src) or TinyBranchNet (odd
// src) graph on 64x64 crossbars at one of five granularities, spending
// up to 11 extra PEs on weight duplication.
func dominantCompile(t *testing.T, seed int64, src, gran, extra byte) fuzzCompiled {
	t.Helper()
	var g *nn.Graph
	if src%2 == 1 {
		g = models.MustBuild(models.TinyBranchNet, models.Options{})
	} else {
		var err error
		if g, err = models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: 2 + int(seed&7)%6, MaxInput: 24}); err != nil {
			t.Fatalf("generator: %v", err)
		}
	}
	target := []int{1, 3, 9, 27, sets.FineGranularity}[int(gran)%5]
	return compileGraph(t, g, im2col.PEDims{Rows: 64, Cols: 64}, target, int(extra)%12)
}

// checkStream revalidates a result with its timelines against
// check.Stream over the models' full CSRs, and its PE activity against
// checkPEActive.
func checkStream(t *testing.T, w Workload, opt Options, res *Result) {
	t.Helper()
	checkPEActive(t, w, res)
	ms := make([]check.StreamModel, len(w.Models))
	for mi, s := range w.Models {
		ms[mi] = check.StreamModel{Graph: s.Graph, Mapping: s.Mapping, Policy: s.Policy, PEBase: s.PEBase}
	}
	infs := make([]check.StreamInference, len(res.Jobs))
	for j, js := range res.Jobs {
		infs[j] = check.StreamInference{Model: js.Model, Arrival: js.Arrival, Timeline: res.Timelines[j]}
	}
	if err := check.Stream(ms, infs, check.StreamOptions{MaxInFlight: opt.MaxInFlight}); err != nil {
		t.Fatalf("check.Stream: %v", err)
	}
}

// checkPEActive recounts a result's PE activity from its per-job
// timelines, without deps.Graph.Activity: every executed set adds its
// cycles to each PE of the replica that ran it, offset by its model's
// PEBase.
func checkPEActive(t *testing.T, w Workload, res *Result) {
	t.Helper()
	want := make([]int64, w.FabricPEs)
	for j, tl := range res.Timelines {
		spec := w.Models[res.Jobs[j].Model]
		for li := 0; li < tl.NumLayers(); li++ {
			for si := range tl.ItemsOf(li) {
				it := tl.At(li, si)
				for _, pe := range spec.Mapping.Groups[li].ReplicaPEs(it.Replica) {
					want[spec.PEBase+pe] += it.End - it.Start
				}
			}
		}
	}
	if !slices.Equal(res.PEActive, want) {
		t.Fatalf("PE activity differs from the timelines' recount\ngot  %v\nwant %v", res.PEActive, want)
	}
}
