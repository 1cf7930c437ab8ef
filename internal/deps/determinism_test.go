package deps

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/sets"
)

// TestBuildDeterministic: Build must produce byte-identical CSR arrays
// regardless of how the per-layer fan-out is scheduled — across
// GOMAXPROCS settings, which set its worker count, and across repeated
// runs. The positional merge makes this structural, but a race or a
// scheduling-order dependence would show up here (run with -race).
func TestBuildDeterministic(t *testing.T) {
	cases := []struct {
		id         models.ID
		size       int
		targetSets int
	}{
		{models.TinyYOLOv4, 416, 26},
		{models.TinyYOLOv4, 416, sets.FineGranularity},
		{models.ResNet50, 224, 26},
		{models.ResNet50, 224, sets.FineGranularity},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		label := fmt.Sprintf("%s/%d", c.id, c.targetSets)
		if c.targetSets == sets.FineGranularity {
			label = fmt.Sprintf("%s/fine", c.id)
		}
		t.Run(label, func(t *testing.T) {
			g, plan := planFor(t, c.id, c.size, c.targetSets)
			runtime.GOMAXPROCS(1)
			serial, err := Build(g, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, gmp := range []int{1, 2, 4, 7, 8} {
				runtime.GOMAXPROCS(gmp)
				for run := 0; run < 2; run++ {
					dg, err := Build(g, plan)
					if err != nil {
						t.Fatal(err)
					}
					if !dg.CSR.Equal(serial.CSR) {
						t.Fatalf("GOMAXPROCS=%d run=%d: CSR diverges from serial build", gmp, run)
					}
				}
			}
		})
	}
}

// planFor lowers a model through Stage I (no duplication) for the
// determinism runs; the plan is built once and shared across all Build
// invocations, like in the engine's compile pipeline.
func planFor(t *testing.T, id models.ID, inputSize, targetSets int) (*nn.Graph, *sets.Plan) {
	t.Helper()
	g, dg := buildDeps(t, id, inputSize, targetSets, 0)
	return g, dg.Plan
}

// TestLayerTargetSignatureDeterminesGraph is the reuse precondition of
// the scored duplication solver, which keeps one Stage I/II graph for
// every candidate vector with the same per-layer sets.LayerTarget
// signature: two feasible duplication vectors with equal signatures
// must build CSR-identical dependency graphs, and at FineGranularity
// every vector has the same signature. Checked on random CNNs and on
// TinyYOLOv4, over random feasible vectors plus, for each, a sibling
// that lowers every duplication the signature cannot see.
func TestLayerTargetSignatureDeterminesGraph(t *testing.T) {
	type workload struct {
		label string
		g     *nn.Graph
		pe    im2col.PEDims
		extra int
	}
	var loads []workload
	for seed := int64(1); seed <= 6; seed++ {
		g, err := models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: 6, MaxInput: 24})
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{fmt.Sprintf("random%d", seed), g, im2col.PEDims{Rows: 64, Cols: 64}, 12})
	}
	loads = append(loads, workload{"tinyyolov4", models.MustBuild(models.TinyYOLOv4, models.Options{}),
		im2col.PEDims{Rows: 256, Cols: 256}, 32})

	shared := 0 // distinct vectors that shared a coarse signature
	for _, w := range loads {
		if _, err := frontend.Canonicalize(w.g, frontend.Options{}); err != nil {
			t.Fatal(err)
		}
		plan, err := mapping.Analyze(w.g, w.pe)
		if err != nil {
			t.Fatal(err)
		}
		f := plan.MinPEs + w.extra
		rng := rand.New(rand.NewSource(int64(len(plan.Layers))))
		var vecs [][]int
		for i := 0; i < 3; i++ {
			vecs = append(vecs, randomFeasibleDup(plan, f, rng))
		}
		for _, target := range []int{sets.FineGranularity, 26, 7, 3} {
			all := slices.Clone(vecs)
			for _, d := range vecs {
				all = append(all, signatureSibling(d, target))
			}
			graphs := make(map[string]*Graph)
			firstVec := make(map[string][]int)
			for _, d := range all {
				sig := fmt.Sprint(layerTargets(d, target))
				dg := buildWithDup(t, w.g, plan, f, d, target)
				ref, ok := graphs[sig]
				if !ok {
					graphs[sig], firstVec[sig] = dg, d
					continue
				}
				if !dg.CSR.Equal(ref.CSR) {
					t.Fatalf("%s sets=%d: d=%v and d=%v share signature %s but build different graphs",
						w.label, target, d, firstVec[sig], sig)
				}
				if target != sets.FineGranularity && !slices.Equal(d, firstVec[sig]) {
					shared++
				}
			}
			if target == sets.FineGranularity && len(graphs) != 1 {
				t.Errorf("%s: %d distinct signatures at FineGranularity, want 1", w.label, len(graphs))
			}
		}
	}
	if shared == 0 {
		t.Error("no two distinct vectors shared a coarse signature: the property was never exercised")
	}
}

// randomFeasibleDup draws a duplication vector with every
// 1 <= d_i <= MaxDup_i and sum(c_i*d_i) <= f.
func randomFeasibleDup(plan *mapping.Plan, f int, rng *rand.Rand) []int {
	d := make([]int, len(plan.Layers))
	used := 0
	for i := range d {
		d[i] = 1
		used += plan.Layers[i].Cost
	}
	for step := 0; step < 4*len(d); step++ {
		i := rng.Intn(len(d))
		li := plan.Layers[i]
		if d[i] < mapping.MaxDup(li) && used+li.Cost <= f {
			d[i]++
			used += li.Cost
		}
	}
	return d
}

// signatureSibling lowers to 1 every duplication whose set target
// equals a single copy's, giving a (usually different) vector with the
// same signature that stays feasible.
func signatureSibling(d []int, target int) []int {
	out := slices.Clone(d)
	for i, v := range out {
		if sets.LayerTarget(target, v) == sets.LayerTarget(target, 1) {
			out[i] = 1
		}
	}
	return out
}

func layerTargets(d []int, target int) []int {
	sig := make([]int, len(d))
	for i, v := range d {
		sig[i] = sets.LayerTarget(target, v)
	}
	return sig
}

func buildWithDup(t *testing.T, g *nn.Graph, plan *mapping.Plan, f int, d []int, target int) *Graph {
	t.Helper()
	sol, err := mapping.NewSolution(plan, d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, f)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: target})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// TestBuildAllocsPerLayer pins Stage II's memory model: a warm Build
// allocates the CSR arrays plus a few objects per layer (its compiled
// routes), never per set or per edge, and copies no edge through a
// buffer of its own: its bytes are the CSR's plus a constant. The fixed
// terms absorb the scratch regrowth when the race detector makes
// sync.Pool drop the warm scratch. Build runs on one worker:
// testing.AllocsPerRun pins GOMAXPROCS to 1, and so does the test
// around its byte count.
func TestBuildAllocsPerLayer(t *testing.T) {
	const perLayer, fixed, fixedBytes = 5, 64, 64 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, target := range []int{sets.DefaultTargetSets, sets.FineGranularity} {
		g, plan := planFor(t, models.TinyYOLOv4, 416, target)
		var dg *Graph
		build := func() {
			var err error
			if dg, err = Build(g, plan); err != nil {
				t.Fatal(err)
			}
		}
		build()
		allocs := testing.AllocsPerRun(10, build)
		limit := float64(perLayer*len(plan.Layers) + fixed)
		if allocs > limit {
			t.Errorf("target %d: warm Build made %.0f allocs over %d layers (%d sets); want <= %.0f",
				target, allocs, len(plan.Layers), dg.NumSets(), limit)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		c := dg.CSR
		csrBytes := 4*(len(c.LayerOff)+len(c.SetLayer)+len(c.PredOff)+len(c.Pred)+len(c.PredVol)) + 8*len(c.Cycles)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(csrBytes+fixedBytes) {
			t.Errorf("target %d: warm Build allocated %d B for a %d B CSR (%d edges); want at most %d more",
				target, got, csrBytes, c.NumEdges(), fixedBytes)
		}
	}
}
