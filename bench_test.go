// bench_test.go regenerates every table and figure of the paper's
// evaluation (§V) as Go benchmarks — one benchmark per artifact — plus
// the ablation studies and per-stage micro benchmarks. Run with
//
//	go test -bench=. -benchmem
//
// The figure benchmarks report the headline quantities (speedups,
// utilizations) as custom metrics next to the usual ns/op, so a bench
// run doubles as a reproduction log. cmd/paperbench prints the same
// experiments as human-readable tables.
package clsacim_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	clsacim "clsacim"
	"clsacim/internal/bench"
	"clsacim/internal/check"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/sim"

	"clsacim/internal/cim"
)

func harness() *bench.Harness {
	// Default configuration: 256x256 PEs, tMVM = 1400 ns, finest set
	// granularity (the paper's "maximum achievable utilization and
	// minimum inference latency").
	return bench.NewHarness(clsacim.Config{})
}

func find(points []bench.Point, model, label string) bench.Point {
	for _, p := range points {
		if p.Model == model && p.Label() == label {
			return p
		}
	}
	return bench.Point{}
}

// BenchmarkTableI_TinyYOLOv4Structure regenerates paper Table I: the
// TinyYOLOv4 base-layer structure and PEmin = 117.
func BenchmarkTableI_TinyYOLOv4Structure(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		rows, peMin, err := h.RunTableI()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 21 || peMin != 117 {
			b.Fatalf("structure mismatch: %d rows, PEmin %d", len(rows), peMin)
		}
		b.ReportMetric(float64(peMin), "PEmin")
	}
}

// BenchmarkTableII_BenchmarkList regenerates paper Table II: base-layer
// counts and minimum PE requirements of all six benchmarks.
func BenchmarkTableII_BenchmarkList(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		rows, err := h.RunTableII()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("%d rows", len(rows))
		}
		b.ReportMetric(float64(rows[0].MinPEs), "tinyyolov3_PEmin")
		b.ReportMetric(float64(rows[5].MinPEs), "resnet152_PEmin")
	}
}

// BenchmarkFig6a_WdupLayerByLayerGantt regenerates the Fig. 6a
// visualization: TinyYOLOv4 with wdup+16 under layer-by-layer
// scheduling.
func BenchmarkFig6a_WdupLayerByLayerGantt(b *testing.B) {
	h := bench.NewHarness(clsacim.Config{TargetSets: 26})
	for i := 0; i < b.N; i++ {
		rep, dups, err := h.RunFig6Gantt(clsacim.ModeLayerByLayer)
		if err != nil {
			b.Fatal(err)
		}
		if len(dups) == 0 {
			b.Fatal("no duplicated layers at x=16")
		}
		if err := rep.RenderGantt(io.Discard, 100); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.MakespanCycles), "makespan_cycles")
	}
}

// BenchmarkFig6b_WdupCLSAGantt regenerates the Fig. 6b visualization:
// the same mapping under CLSA-CIM cross-layer scheduling.
func BenchmarkFig6b_WdupCLSAGantt(b *testing.B) {
	h := bench.NewHarness(clsacim.Config{TargetSets: 26})
	for i := 0; i < b.N; i++ {
		rep, _, err := h.RunFig6Gantt(clsacim.ModeCrossLayer)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.RenderGantt(io.Discard, 100); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.MakespanCycles), "makespan_cycles")
		b.ReportMetric(rep.Utilization*100, "utilization_pct")
	}
}

// BenchmarkFig6c_TinyYOLOv4CaseStudy regenerates the Fig. 6c series:
// speedup and utilization of every mapping/scheduling combination for
// TinyYOLOv4. Paper headline: xinf utilization 4.1 %; wdup+32 + xinf
// utilization 28.4 %, speedup 21.9x.
func BenchmarkFig6c_TinyYOLOv4CaseStudy(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		points, err := h.RunFig6c()
		if err != nil {
			b.Fatal(err)
		}
		xinf := find(points, "tinyyolov4", "xinf")
		best := find(points, "tinyyolov4", "wdup+32 xinf")
		b.ReportMetric(xinf.Utilization*100, "xinf_ut_pct")
		b.ReportMetric(best.Utilization*100, "wdup32_xinf_ut_pct")
		b.ReportMetric(best.Speedup, "wdup32_xinf_speedup")
	}
}

// BenchmarkFig7a_SpeedupAllBenchmarks regenerates the Fig. 7a speedup
// sweep over all Table II benchmarks. Paper headline: best combination
// 29.2x (TinyYOLOv3); xinf alone up to 4.4x for large models; wdup alone
// 1.1-1.9x.
func BenchmarkFig7a_SpeedupAllBenchmarks(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		points, err := h.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(find(points, "tinyyolov3", "wdup+32 xinf").Speedup, "tinyyolov3_best_speedup")
		b.ReportMetric(find(points, "resnet152", "xinf").Speedup, "resnet152_xinf_speedup")
		b.ReportMetric(find(points, "vgg19", "wdup+32 lbl").Speedup, "vgg19_wdup32_speedup")
	}
}

// BenchmarkFig7b_UtilizationAllBenchmarks regenerates the Fig. 7b
// utilization sweep. Paper headline: TinyYOLOv3 peaks at 20.1 % (a 17.9x
// gain); deep ResNets stay below 10 %.
func BenchmarkFig7b_UtilizationAllBenchmarks(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		points, err := h.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(find(points, "tinyyolov3", "wdup+32 xinf").Utilization*100, "tinyyolov3_ut_pct")
		b.ReportMetric(find(points, "resnet50", "wdup+32 xinf").Utilization*100, "resnet50_ut_pct")
		b.ReportMetric(find(points, "resnet152", "wdup+32 xinf").Utilization*100, "resnet152_ut_pct")
	}
}

// BenchmarkAblationSetGranularity sweeps the Stage I granularity
// (DESIGN.md ablation: scheduling granularity vs speedup).
func BenchmarkAblationSetGranularity(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		points, err := h.RunGranularity("tinyyolov4", []int{8, 26, 104, 416, 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Speedup, "coarse8_speedup")
		b.ReportMetric(points[len(points)-1].Speedup, "fine4096_speedup")
	}
}

// BenchmarkAblationDuplicationSolver compares the Optimization Problem 1
// solvers (none/greedy/dp) and the bottleneck-aware minmax extension
// under cross-layer scheduling.
func BenchmarkAblationDuplicationSolver(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		points, err := h.RunSolvers("tinyyolov3", 32)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.Speedup, p.Param+"_speedup")
		}
	}
}

// BenchmarkAblationNoCCost quantifies the sensitivity of the headline
// speedup to per-hop NoC data-movement cost (paper §V-C future work).
func BenchmarkAblationNoCCost(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		points, err := h.RunNoCCost("tinyyolov4", []float64{0, 1, 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Speedup, "hop0_speedup")
		b.ReportMetric(points[len(points)-1].Speedup, "hop4_speedup")
	}
}

// BenchmarkAblationCrossbarSize retargets the architecture across PE
// dimensions (paper §V-C: crossbar dimensions are an input parameter).
func BenchmarkAblationCrossbarSize(b *testing.B) {
	h := harness()
	dims := []int{64, 128, 256, 512}
	for i := 0; i < b.N; i++ {
		points, err := h.RunCrossbarSize("vgg16", dims)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != len(dims) {
			b.Fatalf("%d points for %d crossbar sizes", len(points), len(dims))
		}
		for j, p := range points {
			b.ReportMetric(p.Speedup, fmt.Sprintf("%dx%d_speedup", dims[j], dims[j]))
		}
	}
}

// BenchmarkAblationVirtualization sweeps the PE count below PEmin
// (paper §V-C future work): latency and endurance cost of weight
// reloading.
func BenchmarkAblationVirtualization(b *testing.B) {
	h := harness()
	for i := 0; i < b.N; i++ {
		points, err := h.RunVirtualization("vgg16", []float64{1, 0.8, 0.6, 0.4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Speedup, "full_speedup")
		b.ReportMetric(points[len(points)-1].Speedup, "pe40pct_speedup")
	}
}

// --- Per-stage micro benchmarks -------------------------------------

// BenchmarkCompileTinyYOLOv4 measures the full compilation pipeline
// (canonicalize, map, Stage I, Stage II) at fine granularity.
func BenchmarkCompileTinyYOLOv4(b *testing.B) {
	m, err := clsacim.LoadModel("tinyyolov4", clsacim.ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clsacim.Compile(m, clsacim.Config{ExtraPEs: 32, WeightDuplication: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSearch measures a full compilation with the scored
// search solver at its default budget: ~48 candidate duplication
// vectors, each priced by the Stage IV makespan pass. At 26 sets a
// duplicated layer's set target depends on its d_i, so candidates that
// change it rebuild Stage I/II; BenchmarkSolverSearchFine is the
// Engine-default granularity, where one graph serves every candidate.
func BenchmarkSolverSearch(b *testing.B) {
	benchSolverSearch(b, 26)
}

// BenchmarkSolverSearchFine is BenchmarkSolverSearch at
// FineGranularity, the Engine default (and the search compile the
// clsabench "search" workload times).
func BenchmarkSolverSearchFine(b *testing.B) {
	benchSolverSearch(b, sets.FineGranularity)
}

func benchSolverSearch(b *testing.B, targetSets int) {
	m, err := clsacim.LoadModel("tinyyolov4", clsacim.ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := clsacim.Config{
		TargetSets: targetSets, ExtraPEs: 32, WeightDuplication: true,
		Solver: "search", SolverSeed: 1, SolverMode: "xinf",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clsacim.Compile(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// stageIWorkload lowers TinyYOLOv4 (wdup+32, dp) through
// canonicalization and mapping: the input of Stage I.
func stageIWorkload(b *testing.B) (*nn.Graph, *mapping.Mapping, cim.Config) {
	b.Helper()
	g := models.MustBuild(models.TinyYOLOv4, models.Options{})
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		b.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 256, Cols: 256})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := mapping.Solve(plan, plan.MinPEs+32, mapping.SolverDP)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs+32)
	if err != nil {
		b.Fatal(err)
	}
	arch := cim.Default()
	arch.NumPEs = plan.MinPEs + 32
	return g, m, arch
}

// stageIIWorkload runs Stage I on the Stage I workload at fine
// granularity: the input of Stage II.
func stageIIWorkload(b *testing.B) (*nn.Graph, *mapping.Mapping, *sets.Plan, cim.Config) {
	b.Helper()
	g, m, arch := stageIWorkload(b)
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: sets.FineGranularity})
	if err != nil {
		b.Fatal(err)
	}
	return g, m, sp, arch
}

// stageIVWorkload lowers TinyYOLOv4 (wdup+32, fine granularity) through
// Stages I-II for the scheduler/simulator micro benchmarks.
func stageIVWorkload(b *testing.B) (*mapping.Mapping, *deps.Graph, cim.Config) {
	b.Helper()
	g, m, sp, arch := stageIIWorkload(b)
	dg, err := deps.Build(g, sp)
	if err != nil {
		b.Fatal(err)
	}
	return m, dg, arch
}

// BenchmarkStageI measures set determination (Stage I) on TinyYOLOv4
// wdup+32 at fine granularity.
func BenchmarkStageI(b *testing.B) {
	g, m, _ := stageIWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sets.Determine(g, m, sets.Options{TargetSets: sets.FineGranularity}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageII measures dependency determination (Stage II, the
// CSR build) on the same workload, with the default worker count.
func BenchmarkStageII(b *testing.B) {
	g, _, sp, _ := stageIIWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deps.Build(g, sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageIV measures the raw Stage IV list scheduler over the
// CSR dependency arrays (no validation, no metrics), per policy.
func BenchmarkStageIV(b *testing.B) {
	_, dg, _ := stageIVWorkload(b)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(4), schedule.CrossLayer} {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := schedule.Schedule(dg, p, schedule.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if s.Makespan <= 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkCheckTimeline measures the engine-independent invariant
// checker on the BenchmarkStageIV timelines: the price WithValidation
// adds, once per timeline, where Compiled.timeline first builds it.
func BenchmarkCheckTimeline(b *testing.B) {
	m, dg, _ := stageIVWorkload(b)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(4), schedule.CrossLayer} {
		b.Run(p.Name(), func(b *testing.B) {
			tl, err := schedule.Schedule(dg, p, schedule.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := check.Timeline(m, dg, p, tl, check.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulate measures the steady-state discrete-event simulator
// on the same workload and policies: a reused sim.State, which keeps its
// scratch and its Stage III dispatch plan across runs of one workload.
// The cold path (fresh scratch, dispatch built per run) is sim.Run.
func BenchmarkSimulate(b *testing.B) {
	m, dg, arch := stageIVWorkload(b)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(4), schedule.CrossLayer} {
		b.Run(p.Name(), func(b *testing.B) {
			st := sim.NewState()
			var opt sim.Options
			if _, err := st.Run(arch, dg, m, p, opt); err != nil {
				b.Fatal(err) // warm the scratch so allocs/op is steady-state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := st.Run(arch, dg, m, p, opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Makespan <= 0 {
					b.Fatal("empty simulation")
				}
			}
		})
	}
}

// BenchmarkSimulateCoarse measures the scalar-only fast path: same
// event loop, no Timeline materialization, zero steady-state
// allocations.
func BenchmarkSimulateCoarse(b *testing.B) {
	m, dg, arch := stageIVWorkload(b)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(4), schedule.CrossLayer} {
		b.Run(p.Name(), func(b *testing.B) {
			st := sim.NewState()
			var opt sim.Options
			if _, err := st.RunCoarse(arch, dg, m, p, opt); err != nil {
				b.Fatal(err) // warm the scratch so allocs/op is steady-state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				co, err := st.RunCoarse(arch, dg, m, p, opt)
				if err != nil {
					b.Fatal(err)
				}
				if co.Makespan <= 0 {
					b.Fatal("empty simulation")
				}
			}
		})
	}
}

// BenchmarkScheduleCrossLayer measures Stage III/IV scheduling through
// the facade. Compiled caches validated timelines per mode, so this now
// measures the cached path (report assembly + metrics); BenchmarkStageIV
// above measures the raw scheduler.
func BenchmarkScheduleCrossLayer(b *testing.B) {
	m, err := clsacim.LoadModel("tinyyolov4", clsacim.ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := clsacim.Compile(m, clsacim.Config{ExtraPEs: 32, WeightDuplication: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Schedule(clsacim.ModeCrossLayer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportDerivedMetrics measures the per-PE activity and the
// buffer peak that a report derives from its cached timeline on the
// same workload.
func BenchmarkReportDerivedMetrics(b *testing.B) {
	m, err := clsacim.LoadModel("tinyyolov4", clsacim.ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := clsacim.Compile(m, clsacim.Config{ExtraPEs: 32, WeightDuplication: true})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := comp.Schedule(clsacim.ModeCrossLayer)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rep.PEActive()) != rep.F || rep.PeakLiveElems() <= 0 {
			b.Fatal("empty report metrics")
		}
	}
}

// BenchmarkCompileResNet152 measures the pipeline on the deepest
// evaluation model.
func BenchmarkCompileResNet152(b *testing.B) {
	m, err := clsacim.LoadModel("resnet152", clsacim.ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clsacim.Compile(m, clsacim.Config{ExtraPEs: 32, WeightDuplication: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalCrossbarConv measures quantized crossbar execution
// of a convolution layer (functional model throughput).
func BenchmarkFunctionalCrossbarConv(b *testing.B) {
	m, err := clsacim.LoadModel("tinyconvnet", clsacim.ModelOptions{WithWeights: true, Seed: 1, InputSize: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clsacim.VerifyFunctional(m, 2, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamThroughput serves a closed-loop stream of TinyYOLOv4
// inferences under xinf and reports the steady-state serving rate next
// to the single-inference rate. The pipelined throughput must be
// strictly greater than 1/makespan of one inference — the subsystem's
// acceptance criterion.
func BenchmarkStreamThroughput(b *testing.B) {
	eng := clsacim.MustNew()
	for i := 0; i < b.N; i++ {
		res, err := eng.EvaluateStream(context.Background(), clsacim.StreamRequest{
			Models:     []clsacim.StreamModel{{Model: "tinyyolov4"}},
			Inferences: 16,
			Mode:       clsacim.ModeCrossLayer,
			Arrival:    clsacim.ArrivalProcess{Kind: "closed", Concurrency: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		single := res.PerModel[0].SingleRatePerSec
		if res.ThroughputPerSec <= single {
			b.Fatalf("streamed throughput %.2f/s not above single-inference rate %.2f/s",
				res.ThroughputPerSec, single)
		}
		b.ReportMetric(res.ThroughputPerSec, "inf/s")
		b.ReportMetric(res.ThroughputPerSec/single, "gain")
	}
}

// Example output helper: the benchmarks above are silent; this example
// documents how to print the full evaluation.
func Example() {
	fmt.Println("run: go run ./cmd/paperbench -exp all")
	// Output: run: go run ./cmd/paperbench -exp all
}
