// Command netinfo prints the base-layer structure of a model after
// canonicalization — the data of paper Table I — or the benchmark
// overview of paper Table II.
//
// Usage:
//
//	netinfo -model tinyyolov4          # Table I style layer listing
//	netinfo -table2                    # Table II benchmark overview
//	netinfo -model vgg16 -pe 128       # retargeted crossbar size
//	netinfo -import net.json           # layer listing of an imported graph
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	clsacim "clsacim"
	"clsacim/internal/bench"
)

func main() {
	model := flag.String("model", "tinyyolov4", "model name (see -list)")
	pe := flag.Int("pe", 256, "crossbar dimension (PE rows = cols)")
	table2 := flag.Bool("table2", false, "print the paper Table II benchmark overview")
	list := flag.Bool("list", false, "list available models")
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
		if !flagSet("model") {
			*model = m.Name
		}
	}

	if *list {
		for _, name := range clsacim.AllModels() {
			fmt.Println(name)
		}
		return
	}

	if *table2 {
		h := bench.NewHarness(clsacim.Config{PERows: *pe, PECols: *pe})
		if err := h.PrintTableII(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	eng, err := clsacim.New(clsacim.WithConfig(clsacim.Config{PERows: *pe, PECols: *pe}))
	if err != nil {
		fatal(err)
	}
	comp, err := eng.Compile(context.Background(), clsacim.Request{Model: *model})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d base layers, PEmin = %d (%dx%d PEs)\n",
		*model, comp.BaseLayerCount(), comp.PEmin(), *pe, *pe)
	fmt.Printf("%-14s %-16s %-16s %6s %10s\n", "Layer", "IFM (HWC)", "OFM (HWC)", "#PE", "Cycles")
	for _, r := range comp.LayerTable() {
		fmt.Printf("%-14s (%4d,%4d,%4d) (%4d,%4d,%4d) %6d %10d\n",
			r.Name, r.IFM[0], r.IFM[1], r.IFM[2], r.OFM[0], r.OFM[1], r.OFM[2], r.PEs, r.Cycles)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netinfo:", err)
	os.Exit(1)
}
