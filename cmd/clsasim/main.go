// Command clsasim compiles a model for a tiled CIM architecture and
// reports the paper's evaluation metrics for one configuration:
// makespan, latency, utilization (Eq. 2), speedup against the
// layer-by-layer reference, and the schedule's buffer peak.
//
// Usage:
//
//	clsasim -model tinyyolov4 -x 32 -wdup -sched xinf
//	clsasim -model resnet50 -x 4 -wdup -sched xinf -noc 1.5
//	clsasim -model vgg16 -sched lbl -sets 26
//	clsasim -model tinyyolov4 -x 32 -wdup -sched x4   # at most 4 layers active
//	clsasim -import net.onnx -x 16 -wdup              # imported graph file
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	clsacim "clsacim"
)

func main() {
	model := flag.String("model", "tinyyolov4", "model name")
	x := flag.Int("x", 0, "extra PEs beyond PEmin (the paper's wdup+x)")
	wdup := flag.Bool("wdup", false, "enable weight duplication mapping")
	sched := flag.String("sched", "xinf", "scheduling: xinf (CLSA-CIM), lbl (layer-by-layer), or xK bounded window (e.g. x4)")
	solver := flag.String("solver", "dp", "duplication solver: dp, greedy, minmax, none")
	sets := flag.Int("sets", 0, "target sets per layer (0 = finest)")
	pe := flag.Int("pe", 256, "crossbar dimension")
	noc := flag.Float64("noc", 0, "NoC cycles per mesh hop (0 = idealized)")
	gpeu := flag.Float64("gpeu", 0, "GPEU cycles per 1024 transferred elements")
	critical := flag.Bool("critical", false, "print the critical path aggregated per layer")
	importPath := flag.String("import", "", "graph file to import (clsacim-graph/v1 JSON or .onnx); becomes the default -model")
	flag.Parse()
	// Config reads a zero crossbar dimension as the 256 default, but
	// the output echoes -pe, so only a real dimension is accepted.
	if *pe <= 0 {
		fatal(fmt.Errorf("-pe must be positive, have %d", *pe))
	}

	if *importPath != "" {
		m, err := clsacim.ImportModel(*importPath, clsacim.ModelOptions{})
		if err != nil {
			fatal(err)
		}
		if err := clsacim.RegisterModel(m.Name, m); err != nil {
			fatal(err)
		}
		// Unless -model was given explicitly, evaluate the import.
		if !flagSet("model") {
			*model = m.Name
		}
	}

	mode, err := clsacim.ParseMode(*sched)
	if err != nil {
		fatal(err)
	}
	eng, err := clsacim.New(clsacim.WithConfig(clsacim.Config{
		PERows: *pe, PECols: *pe,
		NoCCyclesPerHop:    *noc,
		GPEUCyclesPerKElem: *gpeu,
		TargetSets:         *sets,
	}))
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	req := clsacim.Request{
		Model:             *model,
		Mode:              mode,
		ExtraPEs:          *x,
		WeightDuplication: *wdup,
		Solver:            *solver,
	}
	ev, err := eng.Evaluate(ctx, req)
	if err != nil {
		fatal(err)
	}
	r := ev.Result
	fmt.Printf("model          %s\n", r.Model)
	fmt.Printf("architecture   F = %d PEs (PEmin %d + x %d), %dx%d crossbars\n",
		r.F, r.PEmin, r.F-r.PEmin, *pe, *pe)
	fmt.Printf("mapping        wdup=%v solver=%s\n", *wdup, *solver)
	fmt.Printf("scheduling     %v\n", r.Mode)
	fmt.Printf("makespan       %d cycles (%.3f ms at tMVM=1400ns)\n",
		r.MakespanCycles, r.LatencyNanos/1e6)
	fmt.Printf("utilization    %.2f%% (baseline lbl: %.2f%%)\n",
		r.Utilization*100, ev.Baseline.Utilization*100)
	fmt.Printf("speedup        %.2fx vs layer-by-layer (Eq.3 estimate %.2fx)\n",
		ev.Speedup, ev.Eq3Speedup)
	if dups := nonTrivial(r.Duplication); dups > 0 {
		fmt.Printf("duplication    %d layers duplicated: %v\n", dups, r.Duplication)
	}
	fmt.Printf("buffer peak    %d live intermediate elements\n", r.PeakLiveElems())

	if *critical {
		layers, err := r.CriticalLayers()
		if err != nil {
			fatal(err)
		}
		fmt.Println("critical path (per-layer contribution to the makespan):")
		for _, l := range layers {
			fmt.Printf("  %-16s %8d cycles over %d sets\n", l.Layer, l.Cycles, l.Set)
		}
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func nonTrivial(d []int) int {
	n := 0
	for _, v := range d {
		if v > 1 {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clsasim:", err)
	os.Exit(1)
}
