// Command gantt renders an ASCII Gantt chart of a CIM schedule — the
// textual analogue of paper Fig. 6(a)/(b).
//
// Usage:
//
//	gantt -model tinyyolov4 -x 16 -wdup -sched lbl    # Fig. 6a
//	gantt -model tinyyolov4 -x 16 -wdup -sched xinf   # Fig. 6b
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
	x := flag.Int("x", 16, "extra PEs beyond PEmin")
	wdup := flag.Bool("wdup", true, "enable weight duplication mapping")
	sched := flag.String("sched", "xinf", "scheduling: xinf, lbl, or xK bounded window (e.g. x4)")
	width := flag.Int("width", 100, "chart width in time buckets")
	sets := flag.Int("sets", 26, "target sets per layer (coarse renders more readable charts)")
	flag.Parse()

	mode, err := clsacim.ParseMode(*sched)
	if err != nil {
		fatal(err)
	}
	eng, err := clsacim.New(clsacim.WithConfig(clsacim.Config{TargetSets: *sets}))
	if err != nil {
		fatal(err)
	}
	rep, err := eng.Schedule(context.Background(), clsacim.Request{
		Model:             *model,
		Mode:              mode,
		ExtraPEs:          *x,
		WeightDuplication: *wdup,
	})
	if err != nil {
		fatal(err)
	}
	if err := rep.RenderGantt(os.Stdout, *width); err != nil {
		fatal(err)
	}
	fmt.Printf("\nutilization %.2f%%, makespan %d cycles\n", rep.Utilization*100, rep.MakespanCycles)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gantt:", err)
	os.Exit(1)
}
