package bench

import (
	"fmt"
	"io"

	clsacim "clsacim"
)

// TableIRow is one row of paper Table I.
type TableIRow struct {
	Name   string `json:"name"`
	IFM    [3]int `json:"ifm"`
	OFM    [3]int `json:"ofm"`
	PEs    int    `json:"pes"`
	Cycles int64  `json:"cycles"`
}

// RunTableI regenerates paper Table I: the base-layer structure of
// TinyYOLOv4 and its minimum PE requirement.
func (h *Harness) RunTableI() (rows []TableIRow, peMin int, err error) {
	comp, err := h.compile("tinyyolov4", h.Base)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range comp.LayerTable() {
		rows = append(rows, TableIRow{Name: r.Name, IFM: r.IFM, OFM: r.OFM, PEs: r.PEs, Cycles: r.Cycles})
	}
	return rows, comp.PEmin(), nil
}

// PrintTableIRows writes already-measured Table I rows.
func PrintTableIRows(w io.Writer, rows []TableIRow, peMin int) error {
	fmt.Fprintf(w, "Table I: Base layer structure of TinyYOLOv4 (256x256 PEs), PEmin = %d\n", peMin)
	tw := table(w)
	fmt.Fprintln(tw, "Layer\tIFM shape (HWC)\tOFM shape (HWC)\t#PE\tCycles t_init")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t(%d, %d, %d)\t(%d, %d, %d)\t%d\t%d\n",
			r.Name, r.IFM[0], r.IFM[1], r.IFM[2], r.OFM[0], r.OFM[1], r.OFM[2], r.PEs, r.Cycles)
	}
	return tw.Flush()
}

// TableIIRow is one row of paper Table II.
type TableIIRow struct {
	Benchmark  string `json:"benchmark"`
	Input      [3]int `json:"input"`
	BaseLayers int    `json:"base_layers"`
	MinPEs     int    `json:"min_pes"`
}

// RunTableII regenerates paper Table II: the benchmark list.
func (h *Harness) RunTableII() ([]TableIIRow, error) {
	var rows []TableIIRow
	for _, name := range Benchmarks {
		comp, err := h.compile(name, h.Base)
		if err != nil {
			return nil, err
		}
		ih, iw, ic := comp.InputShape()
		rows = append(rows, TableIIRow{
			Benchmark:  name,
			Input:      [3]int{ih, iw, ic},
			BaseLayers: comp.BaseLayerCount(),
			MinPEs:     comp.PEmin(),
		})
	}
	return rows, nil
}

// PrintTableII writes Table II in the paper's layout.
func (h *Harness) PrintTableII(w io.Writer) error {
	rows, err := h.RunTableII()
	if err != nil {
		return err
	}
	return PrintTableIIRows(w, rows)
}

// PrintTableIIRows writes already-measured Table II rows.
func PrintTableIIRows(w io.Writer, rows []TableIIRow) error {
	fmt.Fprintln(w, "Table II: List of benchmarks")
	tw := table(w)
	fmt.Fprintln(tw, "Benchmark\tInput shape (HWC)\tBase layers\tMin. # required 256x256 PEs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t(%d, %d, %d)\t%d\t%d\n",
			r.Benchmark, r.Input[0], r.Input[1], r.Input[2], r.BaseLayers, r.MinPEs)
	}
	return tw.Flush()
}

// RunFig6Gantt reproduces the Fig. 6a / 6b visualizations: the wdup+16
// TinyYOLOv4 mapping under layer-by-layer (6a) or CLSA-CIM (6b)
// scheduling. It returns the report for rendering plus the duplication
// table shown next to Fig. 6a.
func (h *Harness) RunFig6Gantt(mode clsacim.ScheduleMode) (*clsacim.Report, []clsacim.LayerRow, error) {
	cfg := h.Base
	cfg.ExtraPEs = 16
	cfg.WeightDuplication = true
	comp, err := h.compile("tinyyolov4", cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := comp.Schedule(mode)
	if err != nil {
		return nil, nil, err
	}
	var dups []clsacim.LayerRow
	for _, r := range comp.LayerTable() {
		if r.Dup > 1 {
			dups = append(dups, r)
		}
	}
	return rep, dups, nil
}

// PrintFig6 writes the Gantt chart and duplication table of Fig. 6a or
// 6b.
func (h *Harness) PrintFig6(w io.Writer, mode clsacim.ScheduleMode, width int) error {
	rep, dups, err := h.RunFig6Gantt(mode)
	if err != nil {
		return err
	}
	sub := "a"
	if mode == clsacim.ModeCrossLayer {
		sub = "b"
	}
	fmt.Fprintf(w, "Fig. 6%s: TinyYOLOv4, weight duplication (wdup+16), %v\n", sub, mode)
	fmt.Fprintln(w, "Duplicated layers:")
	tw := table(w)
	fmt.Fprintln(tw, "Layer\t#PE\tDuplicates")
	for _, d := range dups {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", d.Name, d.PEs, d.Dup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return rep.RenderGantt(w, width)
}

// Fig6cConfigs are the mapping/scheduling combinations of Fig. 6c.
var Fig6cConfigs = []struct {
	Name string
	X    int
	Wdup bool
	Mode clsacim.ScheduleMode
}{
	{"lbl", 0, false, clsacim.ModeLayerByLayer},
	{"xinf", 0, false, clsacim.ModeCrossLayer},
	{"wdup+4 lbl", 4, true, clsacim.ModeLayerByLayer},
	{"wdup+8 lbl", 8, true, clsacim.ModeLayerByLayer},
	{"wdup+16 lbl", 16, true, clsacim.ModeLayerByLayer},
	{"wdup+32 lbl", 32, true, clsacim.ModeLayerByLayer},
	{"wdup+4 xinf", 4, true, clsacim.ModeCrossLayer},
	{"wdup+8 xinf", 8, true, clsacim.ModeCrossLayer},
	{"wdup+16 xinf", 16, true, clsacim.ModeCrossLayer},
	{"wdup+32 xinf", 32, true, clsacim.ModeCrossLayer},
}

// RunFig6c regenerates the Fig. 6c case study: speedup and utilization
// of TinyYOLOv4 across mapping/scheduling combinations.
func (h *Harness) RunFig6c() ([]Point, error) {
	var out []Point
	for _, c := range Fig6cConfigs {
		p, err := h.Run("tinyyolov4", c.X, c.Wdup, c.Mode)
		if err != nil {
			return nil, fmt.Errorf("fig6c %s: %w", c.Name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// PrintFig6cPoints writes already-measured Fig. 6c points.
func PrintFig6cPoints(w io.Writer, points []Point) error {
	fmt.Fprintln(w, "Fig. 6c: TinyYOLOv4 case study — speedup and utilization vs layer-by-layer")
	tw := table(w)
	fmt.Fprintln(tw, "Configuration\tSpeedup\tUtilization\tMakespan (cycles)")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2f%%\t%d\n", p.Label(), p.Speedup, p.Utilization*100, p.Makespan)
	}
	return tw.Flush()
}

// RunFig7 regenerates the Fig. 7 sweep over all Table II benchmarks:
// wdup+x lbl, xinf, and wdup+x xinf for x in XValues. The returned
// points carry both speedup (Fig. 7a) and utilization (Fig. 7b).
func (h *Harness) RunFig7() ([]Point, error) {
	var out []Point
	for _, model := range Benchmarks {
		// Pure cross-layer inference (no extra PEs).
		p, err := h.Run(model, 0, false, clsacim.ModeCrossLayer)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s xinf: %w", model, err)
		}
		out = append(out, p)
		for _, x := range XValues {
			for _, mode := range []clsacim.ScheduleMode{clsacim.ModeLayerByLayer, clsacim.ModeCrossLayer} {
				p, err := h.Run(model, x, true, mode)
				if err != nil {
					return nil, fmt.Errorf("fig7 %s wdup+%d %v: %w", model, x, mode, err)
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// PrintFig7Points writes already-measured Fig. 7 points.
func PrintFig7Points(w io.Writer, points []Point) error {
	fmt.Fprintln(w, "Fig. 7a/7b: speedup and utilization vs layer-by-layer (no duplication)")
	tw := table(w)
	fmt.Fprintln(tw, "Benchmark\tConfiguration\tSpeedup (7a)\tUtilization (7b)\tUt gain")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%s\t%.2fx\t%.2f%%\t%.1fx\n",
			p.Model, p.Label(), p.Speedup, p.Utilization*100, p.UtGain)
	}
	return tw.Flush()
}
