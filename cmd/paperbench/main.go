// Command paperbench regenerates the tables and figures of the paper's
// evaluation section (§V) and the ablation studies.
//
// Usage:
//
//	paperbench                  # everything, BENCH_<exp>.json in .
//	paperbench -exp table1      # one experiment
//	paperbench -exp fig7 -csv   # machine-readable series
//	paperbench -json ""         # suppress the JSON result documents
//
// Experiments: table1, table2, fig6a, fig6b, fig6c, fig7, ablations,
// stream, solver, all.
//
// Each experiment additionally writes a machine-readable result
// document DIR/BENCH_<experiment>.json (schema "clsacim-bench/v1",
// default DIR is the working directory — the repo root in CI, so the
// perf trajectory is recorded next to the code it measures): an
// envelope with the experiment name and wall-clock elapsed_ms, plus
// one payload section matching the experiment kind — table1/table2
// rows, measurement points (model, mapping, x, sched, speedup,
// utilization, makespan_cycles, ut_gain), ablation points, or
// streaming points (scenario, throughput_per_sec, single_rate_per_sec,
// gain, latency percentiles). Bench-trajectory tooling consumes these
// files instead of scraping the text tables; see the README
// "Verification & fuzzing" section for the full format.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the
// README "Performance" section shows the full profiling recipe).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	clsacim "clsacim"
	"clsacim/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig6a, fig6b, fig6c, fig7, ablations, stream, solver, all")
	csv := flag.Bool("csv", false, "emit fig6c/fig7 series as CSV")
	sets := flag.Int("sets", 0, "target sets per layer (0 = finest granularity, as in the paper's peak numbers)")
	stats := flag.Bool("stats", false, "print engine compile-cache statistics after the run")
	jsonDir := flag.String("json", ".", "directory to write BENCH_<experiment>.json result documents (empty = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
	flag.Parse()

	// stopProfiles flushes both profiles; it runs on normal return and
	// before every die(), so a failing experiment still leaves usable
	// profiles of the work done up to that point.
	stopProfiles := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile != "" {
		stopCPU := stopProfiles
		stopProfiles = func() {
			stopCPU()
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
			}
		}
	}
	defer stopProfiles()
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		stopProfiles()
		os.Exit(1)
	}

	if *jsonDir != "" {
		// Fail on an unwritable output directory before the sweeps run,
		// not after the first multi-minute experiment.
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			die("paperbench: -json %s: %v\n", *jsonDir, err)
		}
	}

	h := bench.NewHarness(clsacim.Config{TargetSets: *sets})
	w := os.Stdout

	// run executes one experiment: f prints the human-readable output
	// and returns the experiment's machine-readable payload, which run
	// stamps with the envelope and writes as BENCH_<name>.json when
	// -json is set.
	run := func(name string, f func() (bench.Doc, error)) {
		switch *exp {
		case name, "all":
			start := time.Now()
			doc, err := f()
			if err != nil {
				die("paperbench: %s: %v\n", name, err)
			}
			if *jsonDir != "" {
				doc.Schema = bench.Schema
				doc.Experiment = name
				doc.ElapsedMS = time.Since(start).Milliseconds()
				if err := bench.WriteDocFile(*jsonDir, doc); err != nil {
					die("paperbench: %s: writing %s: %v\n",
						name, bench.DocFilename(name), err)
				}
			}
			fmt.Fprintln(w)
		}
	}

	wantJSON := *jsonDir != ""

	// fig6Doc renders the Fig. 6a/6b Gantt chart; with -json it
	// additionally measures the wdup+16 configuration against the
	// harness baseline as the experiment's one point.
	fig6Doc := func(mode clsacim.ScheduleMode) (bench.Doc, error) {
		if err := h.PrintFig6(w, mode, 100); err != nil {
			return bench.Doc{}, err
		}
		if !wantJSON {
			return bench.Doc{}, nil
		}
		p, err := h.Run("tinyyolov4", 16, true, mode)
		if err != nil {
			return bench.Doc{}, err
		}
		return bench.Doc{Points: []bench.Point{p}}, nil
	}

	run("table1", func() (bench.Doc, error) {
		rows, peMin, err := h.RunTableI()
		if err != nil {
			return bench.Doc{}, err
		}
		return bench.Doc{TableI: rows, PEmin: peMin}, bench.PrintTableIRows(w, rows, peMin)
	})
	run("table2", func() (bench.Doc, error) {
		rows, err := h.RunTableII()
		if err != nil {
			return bench.Doc{}, err
		}
		return bench.Doc{TableII: rows}, bench.PrintTableIIRows(w, rows)
	})
	run("fig6a", func() (bench.Doc, error) { return fig6Doc(clsacim.ModeLayerByLayer) })
	run("fig6b", func() (bench.Doc, error) { return fig6Doc(clsacim.ModeCrossLayer) })
	run("fig6c", func() (bench.Doc, error) {
		points, err := h.RunFig6c()
		if err != nil {
			return bench.Doc{}, err
		}
		if *csv {
			return bench.Doc{Points: points}, bench.WriteCSV(w, points)
		}
		return bench.Doc{Points: points}, bench.PrintFig6cPoints(w, points)
	})
	run("fig7", func() (bench.Doc, error) {
		points, err := h.RunFig7()
		if err != nil {
			return bench.Doc{}, err
		}
		if *csv {
			return bench.Doc{Points: points}, bench.WriteCSV(w, points)
		}
		return bench.Doc{Points: points}, bench.PrintFig7Points(w, points)
	})
	run("ablations", func() (bench.Doc, error) {
		points, err := h.RunAllAblations()
		if err != nil {
			return bench.Doc{}, err
		}
		return bench.Doc{Ablations: points}, bench.PrintAblationPoints(w, points)
	})
	run("stream", func() (bench.Doc, error) {
		points, err := h.RunStream()
		if err != nil {
			return bench.Doc{}, err
		}
		return bench.Doc{Stream: points}, bench.PrintStreamPoints(w, points)
	})
	run("solver", func() (bench.Doc, error) {
		const x = 32
		points, err := h.RunSolverAblation(nil, x)
		if err != nil {
			return bench.Doc{}, err
		}
		return bench.Doc{Solver: points}, bench.PrintSolverPoints(w, x, points)
	})

	if *stats {
		s := h.Engine().Stats()
		fmt.Fprintf(w, "engine: %d compiles, %d cache hits, %d misses, %d evaluations, %d cached entries, %d front-end builds, %d Stage II graph builds\n",
			s.Compiles, s.CacheHits, s.CacheMisses, s.Evaluations, s.CachedEntries, s.FrontEndBuilds, s.GraphBuilds)
	}
}
