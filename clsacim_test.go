package clsacim

import (
	"bytes"
	"strings"
	"testing"
)

func load(t *testing.T, name string) *Model {
	t.Helper()
	m, err := LoadModel(name, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoadModelUnknown(t *testing.T) {
	if _, err := LoadModel("nonexistent", ModelOptions{}); err == nil {
		t.Error("unknown model loaded")
	}
}

func TestModelLists(t *testing.T) {
	want := map[string]bool{"tinyyolov4": true, "resnet152": true}
	for _, name := range Models() {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("Models() missing %v", want)
	}
	all := AllModels()
	if len(all) <= len(Models()) {
		t.Error("AllModels must include the synthetic test networks")
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Error("AllModels not sorted")
		}
	}
}

func TestCompileDefaults(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.PEmin() != 117 || c.TotalPEs() != 117 || c.PEsUsed() != 117 {
		t.Errorf("PEmin/Total/Used = %d/%d/%d", c.PEmin(), c.TotalPEs(), c.PEsUsed())
	}
	if c.BaseLayerCount() != 21 {
		t.Errorf("base layers = %d", c.BaseLayerCount())
	}
	h, w, ch := c.InputShape()
	if h != 416 || w != 416 || ch != 3 {
		t.Errorf("input = (%d,%d,%d)", h, w, ch)
	}
	if c.NumSets() == 0 || c.NumDepEdges() == 0 {
		t.Error("empty stage I/II structures")
	}
}

func TestCompileConfigErrors(t *testing.T) {
	m := load(t, "tinyyolov4")
	if _, err := Compile(m, Config{Solver: "magic", WeightDuplication: true}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := Compile(m, Config{TotalPEs: 10}); err == nil {
		t.Error("under-provisioned TotalPEs accepted")
	}
}

func TestTotalPEsOverride(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{TotalPEs: 200, WeightDuplication: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalPEs() != 200 {
		t.Errorf("TotalPEs = %d, want 200", c.TotalPEs())
	}
	if c.PEsUsed() > 200 {
		t.Errorf("used %d > 200", c.PEsUsed())
	}
}

func TestScheduleBothModes(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	lbl, err := c.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	xinf, err := c.Schedule(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if xinf.MakespanCycles >= lbl.MakespanCycles {
		t.Errorf("xinf %d >= lbl %d", xinf.MakespanCycles, lbl.MakespanCycles)
	}
	if xinf.Utilization <= lbl.Utilization {
		t.Errorf("xinf ut %v <= lbl ut %v", xinf.Utilization, lbl.Utilization)
	}
	if xinf.LatencyNanos != float64(xinf.MakespanCycles)*1400 {
		t.Errorf("latency %v != cycles*1400", xinf.LatencyNanos)
	}
	if len(xinf.Duplication) != 21 {
		t.Errorf("duplication vector length %d", len(xinf.Duplication))
	}
}

func TestEvaluate(t *testing.T) {
	ev, err := Evaluate(load(t, "tinyyolov3"), Config{ExtraPEs: 8, WeightDuplication: true, TargetSets: 26}, ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Speedup <= 1 {
		t.Errorf("speedup %v <= 1", ev.Speedup)
	}
	if ev.Baseline.F != ev.Baseline.PEmin {
		t.Error("baseline must run at F = PEmin")
	}
	rel := (ev.Speedup - ev.Eq3Speedup) / ev.Speedup
	if rel < -0.01 || rel > 0.01 {
		t.Errorf("Eq3 %.3f deviates from measured %.3f", ev.Eq3Speedup, ev.Speedup)
	}
	if ev.UtilizationGain <= 1 {
		t.Errorf("utilization gain %v <= 1", ev.UtilizationGain)
	}
}

func TestLayerTableMatchesTableI(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := c.LayerTable()
	if len(rows) != 21 {
		t.Fatalf("rows = %d", len(rows))
	}
	first := rows[0]
	if first.Name != "conv2d" || first.IFM != [3]int{417, 417, 3} ||
		first.OFM != [3]int{208, 208, 32} || first.PEs != 1 || first.Cycles != 43264 {
		t.Errorf("first row = %+v", first)
	}
	if first.Dup != 1 {
		t.Errorf("dup without wdup = %d", first.Dup)
	}
	total := 0
	for _, r := range rows {
		total += r.PEs
	}
	if total != 117 {
		t.Errorf("PE total = %d", total)
	}
}

func TestBuilderAPI(t *testing.T) {
	b, in := NewBuilder("net", 32, 32, 3)
	if h, w, c := in.Shape(); h != 32 || w != 32 || c != 3 {
		t.Errorf("input shape (%d,%d,%d)", h, w, c)
	}
	x := b.Conv2D(in, 8, 3, 1, true)
	x = b.ReLU(x)
	x = b.MaxPool(x, 2, 2)
	y := b.Conv2D(x, 8, 3, 1, true)
	y = b.LeakyReLU(y, 0.1)
	s := b.Add(x, y)
	u := b.UpSample(s, 2)
	cat := b.ConcatChannels(u, b.Conv2D(in, 8, 1, 1, false))
	b.Output(cat)
	m, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(m, Config{ExtraPEs: 4, WeightDuplication: true, TargetSets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseLayerCount() != 3 {
		t.Errorf("base layers = %d, want 3", c.BaseLayerCount())
	}
	// The same model must be compilable repeatedly (graph cloning).
	if _, err := Compile(m, Config{}); err != nil {
		t.Errorf("second compile failed: %v", err)
	}
}

func TestBuilderErrorPropagation(t *testing.T) {
	b, in := NewBuilder("bad", 8, 8, 3)
	a := b.Conv2D(in, 4, 3, 1, true)
	c := b.Conv2D(in, 4, 3, 2, true) // different spatial dims
	bad := b.Add(a, c)
	b.Output(bad)
	if _, err := b.Finish(); err == nil {
		t.Error("builder error not propagated")
	}
}

func TestBuilderNoOutput(t *testing.T) {
	b, in := NewBuilder("noout", 8, 8, 3)
	b.Conv2D(in, 4, 3, 1, true)
	if _, err := b.Finish(); err == nil {
		t.Error("output-less model accepted")
	}
}

// TestReportPEActivityAndBufferPeak: the report's per-PE activity spans
// all F PEs and sums to the Eq. 2 numerator, and the schedule buffers
// some intermediate data.
func TestReportPEActivityAndBufferPeak(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ScheduleMode{ModeLayerByLayer, ModeCrossLayer} {
		rep, err := c.Schedule(mode)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PeakLiveElems() <= 0 {
			t.Errorf("%v: no buffer pressure recorded", mode)
		}
		act := rep.PEActive()
		if len(act) != c.TotalPEs() {
			t.Errorf("%v: PEActive length %d", mode, len(act))
		}
		var sum int64
		for _, a := range act {
			sum += a
		}
		ut := float64(sum) / (float64(rep.F) * float64(rep.MakespanCycles))
		if diff := ut - rep.Utilization; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%v: utilization from PEActive %v != reported %v", mode, ut, rep.Utilization)
		}
	}
}

func TestRenderGanttOutput(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Schedule(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.RenderGantt(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tinyyolov4", "wdup", "xinf", "conv2d"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt output missing %q", want)
		}
	}
}

func TestLayerSpans(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Schedule(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	spans := rep.LayerSpans()
	dups := 0
	for _, s := range spans {
		if s.End > rep.MakespanCycles || s.Start < 0 {
			t.Errorf("span %+v out of range", s)
		}
		if s.Active > s.End-s.Start {
			t.Errorf("span %+v: active exceeds wall time", s)
		}
		if s.DupCount > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("no duplicated spans despite wdup+16")
	}
}

func TestVerifyFunctionalRequiresWeights(t *testing.T) {
	if _, err := VerifyFunctional(load(t, "tinyconvnet"), 1, 4); err == nil {
		t.Error("shape-only model verified")
	}
}

func TestVerifyFunctionalToyModels(t *testing.T) {
	for _, name := range []string{"tinyconvnet", "tinybranchnet", "tinymlp"} {
		m, err := LoadModel(name, ModelOptions{WithWeights: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyFunctional(m, 3, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.MaxErrCanonicalization > 1e-5 {
			t.Errorf("%s: canonicalization error %v", name, rep.MaxErrCanonicalization)
		}
		if rep.MaxErrDuplication != 0 {
			t.Errorf("%s: duplication rewrite error %v (must be exact)", name, rep.MaxErrDuplication)
		}
		if rep.MaxErrCrossbar > 0.12*rep.OutputScale+0.05 {
			t.Errorf("%s: crossbar error %v vs scale %v", name, rep.MaxErrCrossbar, rep.OutputScale)
		}
		if rep.PEsProgrammed == 0 {
			t.Errorf("%s: no PEs programmed", name)
		}
	}
}

func TestCriticalPathFacade(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov4"), Config{ExtraPEs: 32, WeightDuplication: true, TargetSets: 52})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Schedule(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	path, err := rep.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	if path[len(path)-1].End != rep.MakespanCycles {
		t.Errorf("path ends at %d, makespan %d", path[len(path)-1].End, rep.MakespanCycles)
	}
	layers, err := rep.CriticalLayers()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, l := range layers {
		total += l.Cycles
	}
	if path[0].Start == 0 && total != rep.MakespanCycles {
		t.Errorf("per-layer path cycles %d != makespan %d", total, rep.MakespanCycles)
	}
}

func TestWriteScheduleJSONFacade(t *testing.T) {
	c, err := Compile(load(t, "tinyconvnet"), Config{TargetSets: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Schedule(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteScheduleJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"makespan_cycles\"") {
		t.Error("JSON export missing makespan field")
	}
}

func TestScheduleModeString(t *testing.T) {
	if ModeCrossLayer.String() != "xinf" || ModeLayerByLayer.String() != "layer-by-layer" {
		t.Error("mode names wrong")
	}
}

func TestNoCAndGPEUCostsSlowDown(t *testing.T) {
	m := load(t, "vgg16")
	base, err := Evaluate(m, Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 52}, ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	noc, err := Evaluate(m, Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 52,
		NoCCyclesPerHop: 4}, ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if noc.Result.MakespanCycles < base.Result.MakespanCycles {
		t.Error("NoC cost shortened the schedule")
	}
	gpeu, err := Evaluate(m, Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 52,
		GPEUCyclesPerKElem: 8}, ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if gpeu.Result.MakespanCycles < base.Result.MakespanCycles {
		t.Error("GPEU cost shortened the schedule")
	}
}

func TestSolverVariantsCompile(t *testing.T) {
	m := load(t, "tinyyolov4")
	prev := int64(1 << 62)
	// none >= greedy >= ... each solver must at least not be wildly
	// worse than no duplication under xinf.
	for _, solver := range []string{"none", "greedy", "dp", "minmax"} {
		ev, err := Evaluate(m, Config{ExtraPEs: 32, WeightDuplication: solver != "none",
			Solver: solver, TargetSets: 52}, ModeCrossLayer)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if solver == "none" {
			prev = ev.Result.MakespanCycles
			continue
		}
		if ev.Result.MakespanCycles > prev {
			t.Errorf("solver %s slower than no duplication: %d > %d",
				solver, ev.Result.MakespanCycles, prev)
		}
	}
}

// TestModeWindowFacade exercises the bounded xK family end to end
// through the public API: makespans are bracketed by the two extremes
// and monotone in K, and the mode survives a Request JSON round trip.
func TestModeWindowFacade(t *testing.T) {
	c, err := Compile(load(t, "tinyyolov3"), Config{ExtraPEs: 16, WeightDuplication: true, TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	lbl, err := c.Schedule(ModeLayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	xinf, err := c.Schedule(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	prev := lbl.MakespanCycles
	for _, k := range []int{1, 2, 4, 8} {
		mode := ModeWindow(k)
		rep, err := c.Schedule(mode)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MakespanCycles > prev {
			t.Errorf("x%d makespan %d > previous %d (not monotone)", k, rep.MakespanCycles, prev)
		}
		if rep.MakespanCycles > lbl.MakespanCycles || rep.MakespanCycles < xinf.MakespanCycles {
			t.Errorf("x%d makespan %d outside [xinf %d, lbl %d]",
				k, rep.MakespanCycles, xinf.MakespanCycles, lbl.MakespanCycles)
		}
		prev = rep.MakespanCycles
	}
	if x1, err := c.Schedule(ModeWindow(1)); err != nil {
		t.Errorf("x1 schedule failed: %v", err)
	} else if x1.MakespanCycles != lbl.MakespanCycles {
		t.Errorf("x1 makespan %d, want lbl %d", x1.MakespanCycles, lbl.MakespanCycles)
	}
	if ModeWindow(0) != ModeLayerByLayer {
		t.Error("ModeWindow(0) != ModeLayerByLayer")
	}
	if ModeWindow(4).Window() != 4 || ModeWindow(4).Name() != "x4" || ModeWindow(4).String() != "x4" {
		t.Error("ModeWindow(4) accessors wrong")
	}
}
