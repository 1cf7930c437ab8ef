package schedule

import (
	"encoding/json"
	"io"

	"clsacim/internal/deps"
)

// Export is the JSON-serializable form of a schedule, for consumption by
// external visualization or analysis tooling.
type Export struct {
	Mode     string        `json:"mode"`
	Makespan int64         `json:"makespan_cycles"`
	Layers   []ExportLayer `json:"layers"`
}

// ExportLayer is one base layer's timeline.
type ExportLayer struct {
	Name     string       `json:"name"`
	Replicas int          `json:"replicas"`
	PEs      int          `json:"pes_per_replica"`
	Active   int64        `json:"active_cycles"`
	Items    []ExportItem `json:"items"`
}

// ExportItem is one executed set.
type ExportItem struct {
	Set     int   `json:"set"`
	Replica int   `json:"replica"`
	Start   int64 `json:"start"`
	End     int64 `json:"end"`
	H0      int   `json:"h0"`
	H1      int   `json:"h1"`
	W0      int   `json:"w0"`
	W1      int   `json:"w1"`
}

// BuildExport assembles the serializable view of t over its dependency
// graph. Mode carries the producing policy's canonical name ("lbl",
// "x4", "xinf").
func (t *Timeline) BuildExport(dg *deps.Graph) Export {
	out := Export{Mode: t.Policy.Name(), Makespan: t.Makespan}
	for li, ls := range dg.Plan.Layers {
		el := ExportLayer{
			Name:     ls.Group.Node.Name,
			Replicas: ls.Group.Dup,
			PEs:      ls.Group.PEsPerReplica(),
			Active:   t.LayerActive[li],
		}
		for si := range t.ItemsOf(li) {
			it := t.At(li, si)
			b := ls.Box(si)
			el.Items = append(el.Items, ExportItem{
				Set: si, Replica: it.Replica, Start: it.Start, End: it.End,
				H0: b.H0, H1: b.H1, W0: b.W0, W1: b.W1,
			})
		}
		out.Layers = append(out.Layers, el)
	}
	return out
}

// WriteJSON encodes the timeline as indented JSON.
func (t *Timeline) WriteJSON(w io.Writer, dg *deps.Graph) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.BuildExport(dg))
}
