// Custom architectures (paper §V-C): CLSA-CIM accepts the crossbar
// dimensions as an input parameter and, as an extension, models NoC
// data-movement and GPEU processing costs on dependency edges. This
// example retargets VGG16 across crossbar sizes and quantifies how the
// idealized speedups degrade as data movement becomes expensive.
//
// Each sweep uses its own Engine built from options: the architecture
// lives in the Engine, the workload in the Request. A request may also
// carry a full Config override (used below for the crossbar sweep,
// where the architecture itself is the swept variable).
//
// Run with: go run ./examples/custom_arch
package main

import (
	"context"
	"fmt"
	"log"

	clsacim "clsacim"
)

func main() {
	ctx := context.Background()

	fmt.Println("Crossbar retargeting (VGG16, wdup+32 + xinf):")
	fmt.Printf("%-10s %8s %10s %9s %12s\n", "crossbar", "PEmin", "makespan", "speedup", "utilization")
	eng, err := clsacim.New()
	if err != nil {
		log.Fatal(err)
	}
	for _, dim := range []int{64, 128, 256, 512} {
		cfg := clsacim.Config{
			PERows: dim, PECols: dim,
			ExtraPEs:          32,
			WeightDuplication: true,
		}
		ev, err := eng.Evaluate(ctx, clsacim.Request{
			Model: "vgg16", Mode: clsacim.ModeCrossLayer, Config: &cfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4dx%-5d %8d %10d %8.2fx %11.2f%%\n",
			dim, dim, ev.Result.PEmin, ev.Result.MakespanCycles, ev.Speedup, ev.Result.Utilization*100)
	}

	fmt.Println("\nNoC sensitivity (VGG16, 256x256, wdup+32 + xinf, mesh, XY routing):")
	fmt.Printf("%-12s %10s %9s %12s\n", "cycles/hop", "makespan", "speedup", "utilization")
	for _, hop := range []float64{0, 0.5, 1, 2, 4, 8} {
		nocEng, err := clsacim.New(clsacim.WithConfig(clsacim.Config{NoCCyclesPerHop: hop}))
		if err != nil {
			log.Fatal(err)
		}
		ev, err := nocEng.Evaluate(ctx, clsacim.Request{
			Model: "vgg16", Mode: clsacim.ModeCrossLayer,
			ExtraPEs: 32, WeightDuplication: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12.1f %10d %8.2fx %11.2f%%\n",
			hop, ev.Result.MakespanCycles, ev.Speedup, ev.Result.Utilization*100)
	}

	fmt.Println("\nGPEU cost sensitivity (cycles per 1024 forwarded elements):")
	fmt.Printf("%-12s %10s %9s\n", "cy/Kelem", "makespan", "speedup")
	for _, c := range []float64{0, 1, 4, 16, 64} {
		gpeuEng, err := clsacim.New(clsacim.WithConfig(clsacim.Config{GPEUCyclesPerKElem: c}))
		if err != nil {
			log.Fatal(err)
		}
		ev, err := gpeuEng.Evaluate(ctx, clsacim.Request{
			Model: "vgg16", Mode: clsacim.ModeCrossLayer,
			ExtraPEs: 32, WeightDuplication: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12.1f %10d %8.2fx\n", c, ev.Result.MakespanCycles, ev.Speedup)
	}
}
