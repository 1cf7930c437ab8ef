// Window sweep: quantify how much cross-layer pipeline depth the
// CLSA-CIM speedup actually needs. The bounded xK policy admits at most
// K layers concurrently (K=1 is the paper's layer-by-layer baseline,
// unbounded K is full "xinf" cross-layer inference); sweeping K shows
// the makespan falling monotonically from the lbl extreme to the xinf
// extreme, and each schedule's buffer peak shows the intermediate-data
// footprint that each extra admitted layer costs.
//
// Run with: go run ./examples/window_sweep
package main

import (
	"context"
	"fmt"
	"log"

	clsacim "clsacim"
)

func main() {
	eng, err := clsacim.New(clsacim.WithConfig(clsacim.Config{TargetSets: 104}))
	if err != nil {
		log.Fatal(err)
	}

	req := clsacim.Request{
		Model:             "tinyyolov4",
		ExtraPEs:          32,
		WeightDuplication: true,
	}
	// One compilation serves every mode below: the engine caches it, and
	// the compiled artifact caches one validated timeline per mode.
	comp, err := eng.Compile(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}

	modes := []clsacim.ScheduleMode{clsacim.ModeLayerByLayer}
	for _, k := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		modes = append(modes, clsacim.ModeWindow(k))
	}
	modes = append(modes, clsacim.ModeCrossLayer)

	base, err := comp.Schedule(clsacim.ModeLayerByLayer)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TinyYOLOv4, wdup+32, %d PEs: admission-window sweep\n", base.F)
	fmt.Printf("%-6s %12s %9s %12s %16s\n", "mode", "makespan", "speedup", "utilization", "peak live elems")
	for _, mode := range modes {
		rep, err := comp.Schedule(mode)
		if err != nil {
			log.Fatal(err)
		}
		// Wider windows buy speed with buffer pressure: the peak of
		// intermediate data live at once on the schedule.
		fmt.Printf("%-6s %12d %8.2fx %11.2f%% %16d\n",
			mode.Name(), rep.MakespanCycles,
			float64(base.MakespanCycles)/float64(rep.MakespanCycles),
			rep.Utilization*100, rep.PeakLiveElems())
	}
}
