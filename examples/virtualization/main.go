// Weight virtualization (paper §V-C future work): what happens when the
// architecture has FEWER crossbars than the network needs? Swapped
// layers time-share a PE pool and must be reprogrammed before running —
// RRAM writes are slow and wear the cells, which is why the paper (and
// RRAM practice) stores all weights once. This example sweeps the PE
// count below PEmin and reports the latency and endurance cost.
//
// Run with: go run ./examples/virtualization
package main

import (
	"context"
	"fmt"
	"log"

	clsacim "clsacim"
)

func main() {
	ctx := context.Background()

	// WeightVirtualization permits F < PEmin engine-wide (512-cycle
	// crossbar writes, 4 programmable in parallel — the defaults);
	// architectures at or above PEmin are unaffected.
	eng, err := clsacim.New(clsacim.WithConfig(clsacim.Config{
		WeightVirtualization:   true,
		WriteCyclesPerCrossbar: 512,
		WriteParallelism:       4,
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("VGG16 below PEmin (layer-by-layer, 512-cycle crossbar writes):")
	fmt.Printf("%-8s %-10s %10s %9s %12s %9s\n",
		"PEs", "resident", "makespan", "latency", "writes/inf", "slowdown")
	var fullMakespan int64
	for _, frac := range []float64{1.0, 0.9, 0.8, 0.6, 0.4} {
		f := int(233 * frac)
		req := clsacim.Request{Model: "vgg16", Mode: clsacim.ModeLayerByLayer, TotalPEs: f}
		comp, err := eng.Compile(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := eng.Schedule(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		if fullMakespan == 0 {
			fullMakespan = rep.MakespanCycles
		}
		fmt.Printf("%-8d %2d/%-7d %10d %8.2fms %12d %8.1f%%\n",
			f, comp.ResidentLayers(), comp.BaseLayerCount(),
			rep.MakespanCycles, rep.LatencyNanos/1e6,
			comp.CrossbarWritesPerInference(),
			100*float64(rep.MakespanCycles-fullMakespan)/float64(fullMakespan))
	}

	// Write-cost sensitivity at 60 % of PEmin: the write cost is part of
	// the architecture, so each point overrides the engine Config.
	fmt.Println("\nWrite-cost sensitivity (F = 60% of PEmin):")
	fmt.Printf("%-22s %10s %9s\n", "cycles per crossbar", "makespan", "slowdown")
	for _, wc := range []int64{64, 256, 512, 2048, 8192} {
		cfg := clsacim.Config{
			TotalPEs:               139,
			WeightVirtualization:   true,
			WriteCyclesPerCrossbar: wc,
		}
		rep, err := eng.Schedule(ctx, clsacim.Request{
			Model: "vgg16", Mode: clsacim.ModeLayerByLayer, Config: &cfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22d %10d %8.1f%%\n", wc, rep.MakespanCycles,
			100*float64(rep.MakespanCycles-fullMakespan)/float64(fullMakespan))
	}
	fmt.Println("\nCross-layer scheduling requires full residency; below PEmin the")
	fmt.Println("compiler rejects xinf — exactly the regime the paper excludes.")
}
