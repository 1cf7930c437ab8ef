// Package bench is the evaluation harness: it regenerates every table
// and figure of the paper's evaluation section (§V) — Table I, Table II,
// Fig. 6a/6b/6c, Fig. 7a/7b — plus the ablation, streaming and solver
// studies. Each experiment has a data-returning Run function and a
// Print*Rows or Print*Points function that renders what it returned;
// cmd/paperbench pairs the two and writes the data as a BENCH_*.json
// document. The Fig. 6a/6b Gantt charts (PrintFig6) and Table II
// (PrintTableII, for cmd/netinfo) also have run-and-print wrappers.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	clsacim "clsacim"
)

// XValues are the extra-PE sweeps of the paper's Fig. 7 ("wdup+x").
var XValues = []int{4, 8, 16, 32}

// Benchmarks are the evaluation networks of Table II, in table order.
var Benchmarks = []string{"tinyyolov3", "vgg16", "vgg19", "resnet50", "resnet101", "resnet152"}

// Harness runs every experiment through one shared clsacim.Engine, so
// sweeps reuse compilations (and in particular the layer-by-layer
// reference) instead of redoing them for every point.
type Harness struct {
	// Base is applied to every configuration before per-point overrides
	// (use it to pin granularity, NoC costs, and so on).
	Base clsacim.Config

	eng *clsacim.Engine
}

// NewHarness returns a harness with the given base configuration.
func NewHarness(base clsacim.Config) *Harness {
	return &Harness{
		Base: base,
		eng:  clsacim.MustNew(clsacim.WithConfig(base)),
	}
}

// Engine exposes the harness's shared engine (for Stats inspection and
// direct requests).
func (h *Harness) Engine() *clsacim.Engine { return h.eng }

// compile runs a model/config pair through the engine's compile cache.
func (h *Harness) compile(model string, cfg clsacim.Config) (*clsacim.Compiled, error) {
	return h.eng.Compile(context.Background(), clsacim.Request{Model: model, Config: &cfg})
}

// Baseline returns the layer-by-layer, no-duplication, x=0 reference for
// a model. The engine caches both the compilation and its timeline, so
// repeated calls compile and schedule nothing.
func (h *Harness) Baseline(name string) (*clsacim.Report, error) {
	cfg := h.Base
	cfg.ExtraPEs = 0
	cfg.TotalPEs = 0
	cfg.WeightDuplication = false
	return h.eng.Schedule(context.Background(), clsacim.Request{
		Model: name, Mode: clsacim.ModeLayerByLayer, Config: &cfg,
	})
}

// Point is one measured configuration.
type Point struct {
	Model string `json:"model"`
	// Mapping is "-" (no duplication) or "wdup+<x>".
	Mapping string `json:"mapping"`
	X       int    `json:"x"`
	Sched   string `json:"sched"` // canonical mode name: "lbl", "x<K>", or "xinf"
	// Speedup is relative to the layer-by-layer x=0 baseline.
	Speedup     float64 `json:"speedup"`
	Utilization float64 `json:"utilization"`
	Makespan    int64   `json:"makespan_cycles"`
	// UtGain is Utilization / baseline utilization.
	UtGain float64 `json:"ut_gain"`
}

// Label renders the paper's configuration naming, e.g. "wdup+16 xinf".
func (p Point) Label() string {
	if p.Mapping == "-" {
		return p.Sched
	}
	return p.Mapping + " " + p.Sched
}

// Run measures one configuration.
func (h *Harness) Run(model string, x int, wdup bool, mode clsacim.ScheduleMode) (Point, error) {
	cfg := h.Base
	cfg.ExtraPEs = x
	cfg.WeightDuplication = wdup
	ev, err := h.eng.Evaluate(context.Background(), clsacim.Request{
		Model: model, Mode: mode, Config: &cfg,
	})
	if err != nil {
		return Point{}, err
	}
	p := Point{
		Model:       model,
		Mapping:     "-",
		X:           x,
		Sched:       mode.Name(),
		Speedup:     ev.Speedup,
		Utilization: ev.Result.Utilization,
		Makespan:    ev.Result.MakespanCycles,
		UtGain:      ev.UtilizationGain,
	}
	if wdup {
		p.Mapping = fmt.Sprintf("wdup+%d", x)
	}
	return p, nil
}

// table starts an aligned table writer.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// WriteCSV emits points as CSV with a header row.
func WriteCSV(w io.Writer, points []Point) error {
	if _, err := fmt.Fprintln(w, "model,mapping,x,sched,speedup,utilization,makespan_cycles"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%.4f,%.6f,%d\n",
			p.Model, p.Mapping, p.X, p.Sched, p.Speedup, p.Utilization, p.Makespan); err != nil {
			return err
		}
	}
	return nil
}

// SortPoints orders points by (model, mapping, sched, x) for stable
// output.
func SortPoints(points []Point) {
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Sched != b.Sched {
			return a.Sched < b.Sched
		}
		if a.Mapping != b.Mapping {
			return a.Mapping < b.Mapping
		}
		return a.X < b.X
	})
}
