package metrics

import (
	"math"
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
)

func pipeline(t *testing.T, id models.ID, inputSize, extra, targetSets int) (*mapping.Mapping, *deps.Graph) {
	t.Helper()
	g := models.MustBuild(id, models.Options{InputSize: inputSize})
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 256, Cols: 256})
	if err != nil {
		t.Fatal(err)
	}
	solver := mapping.SolverNone
	if extra > 0 {
		solver = mapping.SolverDP
	}
	sol, err := mapping.Solve(plan, plan.MinPEs+extra, solver)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extra)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: targetSets})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := deps.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return m, dg
}

// TestUtilizationLayerByLayerClosedForm: without duplication, Eq. 2 under
// layer-by-layer scheduling has the closed form
// sum(c_i * t_i) / (F * sum(t_i)).
func TestUtilizationLayerByLayerClosedForm(t *testing.T) {
	m, dg := pipeline(t, models.TinyYOLOv4, 416, 0, 26)
	s, err := schedule.Schedule(dg, schedule.LayerByLayer, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ut, err := Utilization(s.Makespan, s.LayerActive, m)
	if err != nil {
		t.Fatal(err)
	}
	var num, den int64
	for li, ls := range dg.Plan.Layers {
		ti := int64(ls.Group.Node.OutShape.Pixels())
		num += int64(m.Groups[li].PEsPerReplica()) * ti
		den += ti
	}
	want := float64(num) / (float64(m.F) * float64(den))
	if math.Abs(ut-want) > 1e-12 {
		t.Errorf("Ut = %v, want closed form %v", ut, want)
	}
	// TinyYOLOv4 at PEmin: paper-implied baseline utilization ~1.65%.
	if ut < 0.015 || ut > 0.018 {
		t.Errorf("lbl utilization %.4f outside the paper-implied ~0.0165 band", ut)
	}
}

func TestUtilizationErrors(t *testing.T) {
	m, dg := pipeline(t, models.TinyBranchNet, 16, 0, 4)
	s := &schedule.Timeline{LayerActive: make([]int64, len(m.Groups))}
	if _, err := Utilization(s.Makespan, s.LayerActive, m); err == nil {
		t.Error("zero makespan accepted")
	}
	s2, err := schedule.Schedule(dg, schedule.CrossLayer, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	badMap := &mapping.Mapping{F: m.F}
	if _, err := Utilization(s2.Makespan, s2.LayerActive, badMap); err == nil {
		t.Error("group count mismatch accepted")
	}
}

func TestSpeedupAndLatency(t *testing.T) {
	if got := Speedup(100, 25); got != 4 {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Errorf("Speedup div zero = %v", got)
	}
	if got := LatencyNanos(1000, 1400); got != 1.4e6 {
		t.Errorf("LatencyNanos = %v", got)
	}
}

// TestEq3ConsistencyAcrossConfigs: the paper's Eq. 3 relation between
// utilization and speedup must hold (nearly exactly, since total
// PE-cycle work is invariant) for every mapping/scheduling combination.
func TestEq3ConsistencyAcrossConfigs(t *testing.T) {
	type cfg struct {
		id    models.ID
		size  int
		extra int
		mode  schedule.Policy
	}
	cases := []cfg{
		{models.TinyYOLOv4, 416, 0, schedule.CrossLayer},
		{models.TinyYOLOv4, 416, 16, schedule.LayerByLayer},
		{models.TinyYOLOv4, 416, 32, schedule.CrossLayer},
		{models.TinyYOLOv3, 416, 8, schedule.CrossLayer},
		{models.ResNet50, 128, 4, schedule.CrossLayer},
	}
	for _, c := range cases {
		// Baseline: lbl, no duplication, F = PEmin.
		mBase, dgBase := pipeline(t, c.id, c.size, 0, 26)
		sBase, err := schedule.Schedule(dgBase, schedule.LayerByLayer, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		utBase, err := Utilization(sBase.Makespan, sBase.LayerActive, mBase)
		if err != nil {
			t.Fatal(err)
		}
		m, dg := pipeline(t, c.id, c.size, c.extra, 26)
		s, err := schedule.Schedule(dg, c.mode, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ut, err := Utilization(s.Makespan, s.LayerActive, m)
		if err != nil {
			t.Fatal(err)
		}
		measured := Speedup(sBase.Makespan, s.Makespan)
		estimated := Eq3Speedup(ut, utBase, mBase.F, c.extra)
		if rel := math.Abs(measured-estimated) / measured; rel > 0.01 {
			t.Errorf("%s x=%d %v: Eq3 %.3f vs measured %.3f (rel err %.4f)",
				c.id, c.extra, c.mode, estimated, measured, rel)
		}
	}
}

func TestEq3Degenerate(t *testing.T) {
	if Eq3Speedup(0.5, 0, 100, 4) != 0 {
		t.Error("zero baseline utilization must yield 0")
	}
	if Eq3Speedup(0.5, 0.1, 0, 4) != 0 {
		t.Error("zero PEmin must yield 0")
	}
}

// derivedPolicies are the modes the timeline-derived metrics are
// checked under: the layer-by-layer baseline, a bounded window, and
// full cross-layer scheduling.
var derivedPolicies = []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(4), schedule.CrossLayer}

// TestPEActivityConsistency: per-PE busy cycles distribute the group
// activity over exactly the replica's PEs, and the Eq. 2 utilization
// from PEActive matches the metrics-layer computation.
func TestPEActivityConsistency(t *testing.T) {
	m, dg := pipeline(t, models.TinyYOLOv4, 416, 32, 52)
	for _, p := range derivedPolicies {
		s, err := schedule.Schedule(dg, p, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		act := PEActive(s.ReplicaActive, m)
		if len(act) != m.F {
			t.Fatalf("%v: PEActive length %d, want F = %d", p, len(act), m.F)
		}
		var sum, want int64
		for _, a := range act {
			sum += a
		}
		for li, g := range m.Groups {
			want += int64(g.PEsPerReplica()) * s.LayerActive[li]
		}
		if sum != want {
			t.Errorf("%v: PE activity %d != group activity %d", p, sum, want)
		}
		// Every PE of a replica sees the replica's activity.
		for li, g := range m.Groups {
			for r := 0; r < g.Dup; r++ {
				for _, pe := range g.ReplicaPEs(r) {
					if act[pe] != s.ReplicaActive[li][r] {
						t.Fatalf("%v: layer %d replica %d: PE %d activity %d != replica activity %d",
							p, li, r, pe, act[pe], s.ReplicaActive[li][r])
					}
				}
			}
		}
		// Unallocated PEs are idle.
		for pe := m.PEsUsed; pe < m.F; pe++ {
			if act[pe] != 0 {
				t.Errorf("%v: unallocated PE %d has activity %d", p, pe, act[pe])
			}
		}
		ut, err := Utilization(s.Makespan, s.LayerActive, m)
		if err != nil {
			t.Fatal(err)
		}
		if ut <= 0 || ut > 1 {
			t.Errorf("%v: utilization %v out of range", p, ut)
		}
		if fromPEs := float64(sum) / (float64(m.F) * float64(s.Makespan)); math.Abs(fromPEs-ut) > 1e-12 {
			t.Errorf("%v: utilization from PEActive %v != Utilization %v", p, fromPEs, ut)
		}
	}
}

// TestBufferAccounting: peak live data is at least the largest single
// set and bounded by the total intermediate volume.
func TestBufferAccounting(t *testing.T) {
	_, dg := pipeline(t, models.TinyYOLOv4, 128, 0, 26)
	var total, largest int64
	for _, ls := range dg.Plan.Layers {
		for si := 0; si < ls.NumSets(); si++ {
			v := int64(ls.Box(si).Volume())
			total += v
			largest = max(largest, v)
		}
	}
	for _, p := range derivedPolicies {
		s, err := schedule.Schedule(dg, p, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		peak := PeakLiveElems(s, dg)
		if peak < largest {
			t.Errorf("%v: peak %d < largest set %d", p, peak, largest)
		}
		if peak > total {
			t.Errorf("%v: peak %d > total volume %d", p, peak, total)
		}
	}
}

// TestPeakLiveElemsClosedIntervals pins the tie rule on a hand-built
// three-layer schedule. A (10 elements) ends at 1 and is read by C
// (5 elements), which ends at 2; B (20 elements, unread) also ends at
// 2. A's output is live through C's end, and B's and C's outputs are
// live at their end, so all three count at t = 2.
func TestPeakLiveElemsClosedIntervals(t *testing.T) {
	layer := func(vol int) sets.LayerSets {
		return sets.LayerSets{GH: 1, GW: 1, C: vol, RowBounds: []int{0, 1}, ColBounds: []int{0, 1}}
	}
	dg := &deps.Graph{
		Plan: &sets.Plan{Layers: []sets.LayerSets{layer(10), layer(20), layer(5)}},
		CSR: &deps.CSR{
			LayerOff: []int32{0, 1, 2, 3},
			SetLayer: []int32{0, 1, 2},
			Cycles:   []int64{1, 2, 1},
			PredOff:  []int32{0, 0, 0, 1},
			Pred:     []int32{0},
			PredVol:  []int32{10},
		},
	}
	s := &schedule.Timeline{Items: []int64{0, 0, 1}, Off: dg.CSR.LayerOff, Cycles: dg.CSR.Cycles}
	if got := PeakLiveElems(s, dg); got != 35 {
		t.Errorf("peak = %d, want 35 (A, B and C all live at t = 2)", got)
	}
	// Moving B one cycle later separates the peaks: A+C at 2, B at 3.
	s.Items[1] = 1
	if got := PeakLiveElems(s, dg); got != 20 {
		t.Errorf("peak = %d, want 20 (B alone at t = 3)", got)
	}
}
