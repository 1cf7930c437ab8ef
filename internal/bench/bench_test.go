package bench

import (
	"bytes"
	"strings"
	"testing"

	clsacim "clsacim"
)

// coarse returns a harness with coarse granularity to keep tests quick.
func coarse() *Harness {
	return NewHarness(clsacim.Config{TargetSets: 26})
}

func TestTableIData(t *testing.T) {
	rows, peMin, err := coarse().RunTableI()
	if err != nil {
		t.Fatal(err)
	}
	if peMin != 117 {
		t.Errorf("PEmin = %d, want 117", peMin)
	}
	if len(rows) != 21 {
		t.Errorf("rows = %d, want 21", len(rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	c16 := byName["conv2d_16"]
	if c16.IFM != [3]int{15, 15, 256} || c16.OFM != [3]int{13, 13, 512} ||
		c16.PEs != 18 || c16.Cycles != 169 {
		t.Errorf("conv2d_16 row = %+v", c16)
	}
}

func TestTableIIData(t *testing.T) {
	rows, err := coarse().RunTableII()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"tinyyolov3": 142, "vgg16": 233, "vgg19": 314,
		"resnet50": 390, "resnet101": 679, "resnet152": 936,
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if want[r.Benchmark] != r.MinPEs {
			t.Errorf("%s MinPEs = %d, want %d", r.Benchmark, r.MinPEs, want[r.Benchmark])
		}
	}
}

func TestPrintersProduceTables(t *testing.T) {
	h := coarse()
	var buf bytes.Buffer
	rows, peMin, err := h.RunTableI()
	if err != nil {
		t.Fatal(err)
	}
	if err := PrintTableIRows(&buf, rows, peMin); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "conv2d_20") {
		t.Error("Table I output incomplete")
	}
	buf.Reset()
	if err := h.PrintTableII(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resnet152") {
		t.Error("Table II output incomplete")
	}
	buf.Reset()
	points, err := h.RunFig6c()
	if err != nil {
		t.Fatal(err)
	}
	if err := PrintFig6cPoints(&buf, points); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "wdup+32 xinf") || !strings.Contains(out, "Speedup") {
		t.Error("Fig 6c output incomplete")
	}
}

func TestFig6GanttModes(t *testing.T) {
	h := coarse()
	var buf bytes.Buffer
	if err := h.PrintFig6(&buf, clsacim.ModeLayerByLayer, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 6a") || !strings.Contains(buf.String(), "Duplicated layers") {
		t.Error("Fig 6a output incomplete")
	}
	buf.Reset()
	if err := h.PrintFig6(&buf, clsacim.ModeCrossLayer, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 6b") {
		t.Error("Fig 6b output incomplete")
	}
}

func TestFig6cPoints(t *testing.T) {
	points, err := coarse().RunFig6c()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(Fig6cConfigs) {
		t.Fatalf("points = %d", len(points))
	}
	// The lbl reference point has speedup exactly 1.
	if points[0].Label() != "lbl" || points[0].Speedup != 1 {
		t.Errorf("reference point = %+v", points[0])
	}
	// Combined configurations dominate their components.
	byLabel := map[string]Point{}
	for _, p := range points {
		byLabel[p.Label()] = p
	}
	if byLabel["wdup+32 xinf"].Speedup <= byLabel["xinf"].Speedup {
		t.Error("combination does not beat pure xinf")
	}
	if byLabel["wdup+32 xinf"].Speedup <= byLabel["wdup+32 lbl"].Speedup {
		t.Error("combination does not beat pure wdup")
	}
}

// TestHarnessBaselineCaching: a repeated baseline is served whole from
// the engine's compile and makespan caches.
func TestHarnessBaselineCaching(t *testing.T) {
	h := coarse()
	a, err := h.Baseline("tinyyolov4")
	if err != nil {
		t.Fatal(err)
	}
	before := h.Engine().Stats()
	b, err := h.Baseline("tinyyolov4")
	if err != nil {
		t.Fatal(err)
	}
	after := h.Engine().Stats()
	if after.Compiles != before.Compiles || after.CacheHits != before.CacheHits+1 || after.PartialHits != before.PartialHits {
		t.Errorf("repeated baseline: stats %+v -> %+v, want one full cache hit", before, after)
	}
	if a.MakespanCycles != b.MakespanCycles || a.Utilization != b.Utilization {
		t.Errorf("baseline changed between calls: %+v vs %+v", a, b)
	}
}

func TestWriteCSV(t *testing.T) {
	points := []Point{{Model: "m", Mapping: "wdup+4", X: 4, Sched: "xinf",
		Speedup: 2.5, Utilization: 0.123, Makespan: 1000}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "model,mapping,x,sched,speedup,utilization,makespan_cycles\n") {
		t.Errorf("csv header wrong: %q", out)
	}
	if !strings.Contains(out, "m,wdup+4,4,xinf,2.5000,0.123000,1000") {
		t.Errorf("csv row wrong: %q", out)
	}
}

func TestSortPoints(t *testing.T) {
	pts := []Point{
		{Model: "b", Sched: "xinf", Mapping: "-", X: 0},
		{Model: "a", Sched: "xinf", Mapping: "wdup+8", X: 8},
		{Model: "a", Sched: "xinf", Mapping: "wdup+4", X: 4},
		{Model: "a", Sched: "lbl", Mapping: "-", X: 0},
	}
	SortPoints(pts)
	if pts[0].Model != "a" || pts[0].Sched != "lbl" {
		t.Errorf("sort order wrong: %+v", pts[0])
	}
	if pts[1].X != 4 || pts[2].X != 8 {
		t.Error("x ordering wrong")
	}
}

func TestAblationGranularityImproves(t *testing.T) {
	h := coarse()
	points, err := h.RunGranularity("tinyyolov4", []int{4, 416})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].Speedup <= points[0].Speedup {
		t.Errorf("finer granularity not faster: %.2f vs %.2f", points[1].Speedup, points[0].Speedup)
	}
}

func TestAblationSolvers(t *testing.T) {
	points, err := coarse().RunSolvers("tinyyolov4", 16)
	if err != nil {
		t.Fatal(err)
	}
	byParam := map[string]AblationPoint{}
	for _, p := range points {
		byParam[p.Param] = p
	}
	if byParam["dp"].Speedup <= byParam["none"].Speedup {
		t.Error("dp duplication not faster than none under xinf")
	}
	if byParam["minmax"].Speedup < byParam["none"].Speedup {
		t.Error("minmax slower than none")
	}
}

func TestAblationNoCMonotone(t *testing.T) {
	points, err := coarse().RunNoCCost("tinyyolov4", []float64{0, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Makespan < points[i-1].Makespan {
			t.Errorf("NoC cost reduced makespan: %+v", points[i])
		}
	}
}

func TestAblationCrossbarSize(t *testing.T) {
	points, err := coarse().RunCrossbarSize("tinyyolov4", []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Smaller crossbars need more PEs to store the network.
	if !strings.Contains(points[0].Param, "PEmin=") {
		t.Errorf("param missing PEmin: %q", points[0].Param)
	}
}

func TestStreamScenarios(t *testing.T) {
	h := coarse()
	points, err := h.RunStream()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(StreamScenarios) {
		t.Fatalf("got %d points for %d scenarios", len(points), len(StreamScenarios))
	}
	byName := make(map[string]StreamPoint)
	for _, p := range points {
		byName[p.Scenario] = p
		if p.Inferences != streamInferences {
			t.Errorf("%s served %d inferences, want %d", p.Scenario, p.Inferences, streamInferences)
		}
		if p.ThroughputPerSec <= 0 || p.SingleRatePerSec <= 0 {
			t.Errorf("%s has degenerate rates: %+v", p.Scenario, p)
		}
		if p.P99Nanos < p.P50Nanos {
			t.Errorf("%s latency percentiles out of order: %+v", p.Scenario, p)
		}
	}
	// A single-job closed loop is serial execution; deeper loops must
	// pipeline past the serial rate.
	if c1 := byName["closed-c1"]; c1.Gain > 1.001 {
		t.Errorf("closed-c1 gain %.3f, want ~1 (serial)", c1.Gain)
	}
	if c4 := byName["closed-c4"]; c4.Gain <= 1 {
		t.Errorf("closed-c4 gain %.3f, want > 1 (pipelined)", c4.Gain)
	}
	var buf bytes.Buffer
	if err := PrintStreamPoints(&buf, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "closed-c4") {
		t.Errorf("printed table missing scenarios:\n%s", buf.String())
	}
}
