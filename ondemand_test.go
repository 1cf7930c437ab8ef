package clsacim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"clsacim/internal/metrics"
	"clsacim/internal/schedule"
)

// reportAnswers is everything a Report derives from its timeline or
// its activity, through the public accessors.
type reportAnswers struct {
	Spans              []LayerSpan
	Gantt, JSON        string
	Path, Layers       []CriticalStep
	PEActive           []int64
	PeakLiveElems      int64
	Makespan           int64
	Utilization        float64
	EnergyMicroJ       float64
	PathErr, LayersErr error
}

func answersOf(t *testing.T, r *Report) reportAnswers {
	t.Helper()
	a := reportAnswers{
		Spans: r.LayerSpans(), PEActive: r.PEActive(), PeakLiveElems: r.PeakLiveElems(),
		Makespan: r.MakespanCycles, Utilization: r.Utilization, EnergyMicroJ: r.EnergyMicroJoule,
	}
	var gantt, js bytes.Buffer
	if err := r.RenderGantt(&gantt, 60); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteScheduleJSON(&js); err != nil {
		t.Fatal(err)
	}
	a.Gantt, a.JSON = gantt.String(), js.String()
	a.Path, a.PathErr = r.CriticalPath()
	a.Layers, a.LayersErr = r.CriticalLayers()
	return a
}

// TestOnDemandTimelineMatchesSchedule is the equality oracle of the
// makespan-first Report: under every mode, with and without a NoC edge
// cost, and on a virtualized compilation, every accessor of a Report
// that builds its timeline on demand answers exactly what it answers
// over a timeline from schedule.Schedule (charging the reloads below
// PEmin), and the makespan, Eq. 2 utilization, energy and per-PE
// activity taken without a timeline equal the reference timeline's.
func TestOnDemandTimelineMatchesSchedule(t *testing.T) {
	m := load(t, "tinyyolov4")
	type row struct {
		name  string
		cfg   Config
		modes []ScheduleMode
	}
	rows := []row{
		{"ideal", Config{TargetSets: 26, ExtraPEs: 16, WeightDuplication: true, EnergyPerMVMNanoJ: 0.5},
			[]ScheduleMode{ModeLayerByLayer, ModeWindow(4), ModeCrossLayer}},
		{"noc", Config{TargetSets: 26, ExtraPEs: 16, WeightDuplication: true, NoCCyclesPerHop: 2, GPEUCyclesPerKElem: 1},
			[]ScheduleMode{ModeLayerByLayer, ModeWindow(4), ModeCrossLayer}},
		{"fine", Config{ExtraPEs: 32, WeightDuplication: true},
			[]ScheduleMode{ModeLayerByLayer, ModeWindow(4), ModeCrossLayer}},
	}
	full, err := Compile(m, Config{TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row{"virtual", Config{TargetSets: 26, TotalPEs: full.PEmin() - 10, WeightVirtualization: true,
		EnergyPerMVMNanoJ: 0.5, EnergyPerWriteNanoJ: 3}, []ScheduleMode{ModeLayerByLayer}})
	for _, r := range rows {
		c, err := Compile(m, r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range r.modes {
			rep, err := c.Schedule(mode)
			if err != nil {
				t.Fatalf("%s %s: %v", r.name, mode, err)
			}
			ref, err := schedule.Schedule(c.depGraph, c.normalizeMode(mode).p, c.schedOptions(mode))
			if err != nil {
				t.Fatal(err)
			}
			// The reference Report reads ref and derives every metric
			// from it.
			want := *rep
			want.tl = new(lazyTimeline)
			want.tl.once.Do(func() { want.tl.t = ref })
			want.MakespanCycles = ref.Makespan
			if want.Utilization, err = metrics.Utilization(ref.Makespan, ref.LayerActive, c.mapped); err != nil {
				t.Fatal(err)
			}
			if c.cfg.EnergyPerMVMNanoJ > 0 {
				nj, err := metrics.EnergyNanoJoule(ref.LayerActive, c.mapped,
					c.cfg.EnergyPerMVMNanoJ, c.cfg.EnergyPerWriteNanoJ, c.CrossbarWritesPerInference())
				if err != nil {
					t.Fatal(err)
				}
				want.EnergyMicroJoule = nj / 1000
			}
			got, exp := answersOf(t, rep), answersOf(t, &want)
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s %s: on-demand answers differ from the reference timeline's", r.name, mode)
			}
			if pe := metrics.PEActive(ref.ReplicaActive, c.mapped); !reflect.DeepEqual(got.PEActive, pe) {
				t.Errorf("%s %s: PEActive differs from the reference timeline's replica activity", r.name, mode)
			}
			if tl, _ := rep.timeline(); !tl.Equal(ref) {
				t.Errorf("%s %s: on-demand timeline differs from the reference", r.name, mode)
			}
		}
	}
}

// TestValidatingEngineChecksEachTimelineOnce: a validating Engine
// checks a (compilation, mode) timeline when it first computes the
// makespan, and never again. After the mapping is corrupted so that
// every new check fails, the checked mode is still served from its
// cached makespan, reports of it still build their timelines, and a
// mode not scheduled before fails its first check.
func TestValidatingEngineChecksEachTimelineOnce(t *testing.T) {
	ctx := context.Background()
	eng := MustNew(WithValidation())
	req := Request{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 8, WeightDuplication: true}
	if _, err := eng.Schedule(ctx, req); err != nil {
		t.Fatal(err)
	}
	comp, err := eng.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range comp.mapped.Groups {
		if g.Dup >= 2 {
			g.PEs[g.PEsPerReplica()] = g.PEs[0] // replica 1 takes replica 0's first PE
			break
		}
	}
	rep, err := eng.Schedule(ctx, req)
	if err != nil {
		t.Fatalf("checked mode re-checked: %v", err)
	}
	if len(rep.LayerSpans()) == 0 {
		t.Fatal("no spans")
	}
	if _, err := eng.Schedule(ctx, Request{Model: req.Model, Mode: ModeLayerByLayer, ExtraPEs: 8, WeightDuplication: true}); err == nil {
		t.Error("a new mode on the corrupted mapping passed its first check")
	}
}
