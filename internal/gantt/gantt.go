// Package gantt renders ASCII Gantt charts of CIM schedules — the
// textual equivalent of the mapping/scheduling visualizations in paper
// Fig. 6(a)/(b): one row per replica PE group, time on the horizontal
// axis, filled cells where the group computes OFM sets.
package gantt

import (
	"fmt"
	"io"
	"strings"

	"clsacim/internal/deps"
	"clsacim/internal/schedule"
)

// Row is one horizontal band of the chart.
type Row struct {
	Label string
	PEs   int
	Spans []Span
}

// Span is a busy interval in cycles.
type Span struct {
	Start, End int64
}

// FromSchedule builds one row per (layer, replica) PE group from an
// executed timeline, merging adjacent busy intervals.
func FromSchedule(dg *deps.Graph, s *schedule.Timeline) []Row {
	var rows []Row
	for li, ls := range dg.Plan.Layers {
		d := ls.Group.Dup
		perRep := make([][]Span, d)
		for si := range s.ItemsOf(li) {
			it := s.At(li, si)
			sp := Span{it.Start, it.End}
			reps := perRep[it.Replica]
			if n := len(reps); n > 0 && reps[n-1].End == sp.Start {
				reps[n-1].End = sp.End
				perRep[it.Replica] = reps
				continue
			}
			perRep[it.Replica] = append(reps, sp)
		}
		for r := 0; r < d; r++ {
			label := ls.Group.Node.Name
			if d > 1 {
				label = fmt.Sprintf("%s[%d/%d]", label, r, d)
			}
			rows = append(rows, Row{Label: label, PEs: ls.Group.PEsPerReplica(), Spans: perRep[r]})
		}
	}
	return rows
}

// Options configures rendering.
type Options struct {
	// Width is the number of time buckets (default 100).
	Width int
	// ShowPEs appends the PE count to each label.
	ShowPEs bool
}

// levels maps a busy fraction of a bucket to a glyph.
var levels = []byte(" .:-=*#@")

// Render writes the chart. Each row shows the busy fraction of its PE
// group per time bucket; the footer shows the time axis in cycles.
func Render(w io.Writer, title string, rows []Row, makespan int64, opt Options) error {
	width := opt.Width
	if width <= 0 {
		width = 100
	}
	if makespan <= 0 {
		return fmt.Errorf("gantt: empty schedule")
	}
	labelW := 0
	for _, r := range rows {
		l := len(r.Label)
		if opt.ShowPEs {
			l += len(fmt.Sprintf(" (%d PE)", r.PEs))
		}
		if l > labelW {
			labelW = l
		}
	}
	if _, err := fmt.Fprintf(w, "%s  (makespan %d cycles, %d PE groups)\n", title, makespan, len(rows)); err != nil {
		return err
	}
	for _, r := range rows {
		label := r.Label
		if opt.ShowPEs {
			label = fmt.Sprintf("%s (%d PE)", r.Label, r.PEs)
		}
		line := make([]byte, width)
		busy := make([]float64, width)
		for _, sp := range r.Spans {
			// Distribute the span over the buckets it covers.
			b0 := float64(sp.Start) * float64(width) / float64(makespan)
			b1 := float64(sp.End) * float64(width) / float64(makespan)
			for b := int(b0); b < width && float64(b) < b1; b++ {
				lo := maxF(b0, float64(b))
				hi := minF(b1, float64(b+1))
				if hi > lo {
					busy[b] += hi - lo
				}
			}
		}
		for i, f := range busy {
			idx := int(f * float64(len(levels)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(levels) {
				idx = len(levels) - 1
			}
			line[i] = levels[idx]
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelW, label, line); err != nil {
			return err
		}
	}
	axis := fmt.Sprintf("0%s%d", strings.Repeat(" ", maxI(1, width-1-len(fmt.Sprint(makespan)))), makespan)
	_, err := fmt.Fprintf(w, "%-*s  %s\n", labelW, "cycles", axis)
	return err
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
