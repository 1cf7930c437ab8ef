package bench

import (
	"fmt"
	"io"

	clsacim "clsacim"
)

// AblationPoint is one measurement of a design-choice sweep.
type AblationPoint struct {
	Study    string  `json:"study"`
	Model    string  `json:"model"`
	Param    string  `json:"param"`
	Speedup  float64 `json:"speedup"`
	Ut       float64 `json:"utilization"`
	Makespan int64   `json:"makespan_cycles"`
}

// RunGranularity sweeps the Stage I set granularity (sets per layer) for
// one model under wdup+32 + xinf: the paper's "more sets = finer
// scheduling granularity" trade-off.
func (h *Harness) RunGranularity(model string, targets []int) ([]AblationPoint, error) {
	var out []AblationPoint
	base, err := h.Baseline(model)
	if err != nil {
		return nil, err
	}
	for _, t := range targets {
		cfg := h.Base
		cfg.ExtraPEs = 32
		cfg.WeightDuplication = true
		cfg.TargetSets = t
		comp, err := h.compile(model, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := comp.Schedule(clsacim.ModeCrossLayer)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprint(t)
		if t >= 1<<29 {
			label = "finest"
		}
		out = append(out, AblationPoint{
			Study: "granularity", Model: model, Param: label,
			Speedup:  float64(base.MakespanCycles) / float64(rep.MakespanCycles),
			Ut:       rep.Utilization,
			Makespan: rep.MakespanCycles,
		})
	}
	return out, nil
}

// RunSolvers compares the duplication solvers (paper's Optimization
// Problem 1 solved exactly vs greedy vs the bottleneck-aware extension)
// under wdup+x + xinf.
func (h *Harness) RunSolvers(model string, x int) ([]AblationPoint, error) {
	var out []AblationPoint
	base, err := h.Baseline(model)
	if err != nil {
		return nil, err
	}
	for _, solver := range []string{"none", "greedy", "dp", "minmax"} {
		cfg := h.Base
		cfg.ExtraPEs = x
		cfg.WeightDuplication = solver != "none"
		cfg.Solver = solver
		comp, err := h.compile(model, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := comp.Schedule(clsacim.ModeCrossLayer)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study: "solver", Model: model, Param: solver,
			Speedup:  float64(base.MakespanCycles) / float64(rep.MakespanCycles),
			Ut:       rep.Utilization,
			Makespan: rep.MakespanCycles,
		})
	}
	return out, nil
}

// RunNoCCost sweeps the per-hop NoC data-movement cost (paper §V-C
// names cost differentiation as future work; this quantifies the
// sensitivity of the headline speedups to it).
func (h *Harness) RunNoCCost(model string, hops []float64) ([]AblationPoint, error) {
	var out []AblationPoint
	base, err := h.Baseline(model)
	if err != nil {
		return nil, err
	}
	for _, hop := range hops {
		cfg := h.Base
		cfg.ExtraPEs = 32
		cfg.WeightDuplication = true
		cfg.NoCCyclesPerHop = hop
		comp, err := h.compile(model, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := comp.Schedule(clsacim.ModeCrossLayer)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study: "noc", Model: model, Param: fmt.Sprintf("%.2g cy/hop", hop),
			Speedup:  float64(base.MakespanCycles) / float64(rep.MakespanCycles),
			Ut:       rep.Utilization,
			Makespan: rep.MakespanCycles,
		})
	}
	return out, nil
}

// RunCrossbarSize sweeps the PE dimensions (paper §V-C: CLSA-CIM
// "accepts the crossbar dimensions as an input parameter"). Note the
// baseline also changes: PEmin depends on the crossbar size, so speedup
// is measured against the matching layer-by-layer reference.
func (h *Harness) RunCrossbarSize(model string, dims []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, d := range dims {
		cfg := h.Base
		cfg.PERows, cfg.PECols = d, d
		cfg.ExtraPEs = 0
		cfg.WeightDuplication = false
		comp, err := h.compile(model, cfg)
		if err != nil {
			return nil, err
		}
		baseRep, err := comp.Schedule(clsacim.ModeLayerByLayer)
		if err != nil {
			return nil, err
		}
		cfg.ExtraPEs = 32
		cfg.WeightDuplication = true
		comp2, err := h.compile(model, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := comp2.Schedule(clsacim.ModeCrossLayer)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study: "crossbar", Model: model,
			Param:    fmt.Sprintf("%dx%d (PEmin=%d)", d, d, comp.PEmin()),
			Speedup:  float64(baseRep.MakespanCycles) / float64(rep.MakespanCycles),
			Ut:       rep.Utilization,
			Makespan: rep.MakespanCycles,
		})
	}
	return out, nil
}

// RunGPEUCost sweeps the GPEU processing cost charged per transferred
// kilo-element on dependency edges.
func (h *Harness) RunGPEUCost(model string, costs []float64) ([]AblationPoint, error) {
	var out []AblationPoint
	base, err := h.Baseline(model)
	if err != nil {
		return nil, err
	}
	for _, c := range costs {
		cfg := h.Base
		cfg.ExtraPEs = 32
		cfg.WeightDuplication = true
		cfg.GPEUCyclesPerKElem = c
		comp, err := h.compile(model, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := comp.Schedule(clsacim.ModeCrossLayer)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study: "gpeu", Model: model, Param: fmt.Sprintf("%.2g cy/Kelem", c),
			Speedup:  float64(base.MakespanCycles) / float64(rep.MakespanCycles),
			Ut:       rep.Utilization,
			Makespan: rep.MakespanCycles,
		})
	}
	return out, nil
}

// RunWindowSweep sweeps the xK admission window under wdup+32: at most
// K layers concurrently active, interpolating between the paper's two
// extremes (K=1 ≡ lbl, unbounded ≡ xinf). Makespans are monotone
// non-increasing in K, quantifying how much pipeline depth the speedup
// actually needs — small windows need proportionally less tile buffer.
func (h *Harness) RunWindowSweep(model string, windows []int) ([]AblationPoint, error) {
	var out []AblationPoint
	base, err := h.Baseline(model)
	if err != nil {
		return nil, err
	}
	modes := []clsacim.ScheduleMode{clsacim.ModeLayerByLayer}
	for _, k := range windows {
		modes = append(modes, clsacim.ModeWindow(k))
	}
	modes = append(modes, clsacim.ModeCrossLayer)
	cfg := h.Base
	cfg.ExtraPEs = 32
	cfg.WeightDuplication = true
	comp, err := h.compile(model, cfg)
	if err != nil {
		return nil, err
	}
	for _, mode := range modes {
		rep, err := comp.Schedule(mode)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study: "window", Model: model, Param: mode.Name(),
			Speedup:  float64(base.MakespanCycles) / float64(rep.MakespanCycles),
			Ut:       rep.Utilization,
			Makespan: rep.MakespanCycles,
		})
	}
	return out, nil
}

// RunVirtualization sweeps the PE count below PEmin (paper §V-C future
// work): swapped layers are reprogrammed before execution, trading PEs
// for latency and crossbar endurance. fractions are F/PEmin ratios.
func (h *Harness) RunVirtualization(model string, fractions []float64) ([]AblationPoint, error) {
	var out []AblationPoint
	base, err := h.Baseline(model)
	if err != nil {
		return nil, err
	}
	for _, frac := range fractions {
		cfg := h.Base
		cfg.TotalPEs = int(float64(base.PEmin) * frac)
		cfg.WeightVirtualization = frac < 1
		comp, err := h.compile(model, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := comp.Schedule(clsacim.ModeLayerByLayer)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study: "virtualization", Model: model,
			Param: fmt.Sprintf("F=%.0f%% of PEmin (%d PEs, %d writes/inf)",
				frac*100, comp.TotalPEs(), comp.CrossbarWritesPerInference()),
			Speedup:  float64(base.MakespanCycles) / float64(rep.MakespanCycles),
			Ut:       rep.Utilization,
			Makespan: rep.MakespanCycles,
		})
	}
	return out, nil
}

// RunAllAblations runs every ablation study on the case-study model and
// returns the combined point list.
func (h *Harness) RunAllAblations() ([]AblationPoint, error) {
	model := "tinyyolov4"
	var all []AblationPoint
	gran, err := h.RunGranularity(model, []int{8, 26, 104, 416, 4096, 1 << 30})
	if err != nil {
		return nil, err
	}
	all = append(all, gran...)
	solv, err := h.RunSolvers(model, 32)
	if err != nil {
		return nil, err
	}
	all = append(all, solv...)
	noc, err := h.RunNoCCost(model, []float64{0, 0.5, 1, 2, 4, 8})
	if err != nil {
		return nil, err
	}
	all = append(all, noc...)
	xbar, err := h.RunCrossbarSize(model, []int{64, 128, 256, 512})
	if err != nil {
		return nil, err
	}
	all = append(all, xbar...)
	gpeu, err := h.RunGPEUCost(model, []float64{0, 1, 4, 16})
	if err != nil {
		return nil, err
	}
	all = append(all, gpeu...)
	virt, err := h.RunVirtualization(model, []float64{1, 0.8, 0.6, 0.4})
	if err != nil {
		return nil, err
	}
	all = append(all, virt...)
	win, err := h.RunWindowSweep(model, []int{2, 4, 8})
	if err != nil {
		return nil, err
	}
	return append(all, win...), nil
}

// PrintAblationPoints writes already-measured ablation points.
func PrintAblationPoints(w io.Writer, all []AblationPoint) error {
	model := "tinyyolov4"
	if len(all) > 0 {
		model = all[0].Model
	}
	fmt.Fprintf(w, "Ablation studies (%s, wdup+32 + xinf unless noted)\n", model)
	tw := table(w)
	fmt.Fprintln(tw, "Study\tParameter\tSpeedup\tUtilization\tMakespan")
	for _, p := range all {
		fmt.Fprintf(tw, "%s\t%s\t%.2fx\t%.2f%%\t%d\n", p.Study, p.Param, p.Speedup, p.Ut*100, p.Makespan)
	}
	return tw.Flush()
}
