package schedule

import (
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/sets"
)

// CompileDeps exposes compileDeps to the external schedule_test
// package, which may import internal/check.
var CompileDeps = compileDeps

// compileDeps lowers a model to its dependency graph.
func compileDeps(t *testing.T, id models.ID, inputSize, extra, targetSets int) (*nn.Graph, *mapping.Mapping, *deps.Graph) {
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
	return g, m, dg
}

// TestLayerByLayerMakespan: without duplication, lbl makespan is exactly
// the sum of all layers' OFM pixel counts.
func TestLayerByLayerMakespan(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyYOLOv4, 416, 0, 26)
	s, err := Schedule(dg, LayerByLayer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, ls := range dg.Plan.Layers {
		want += int64(ls.Group.Node.OutShape.Pixels())
	}
	if s.Makespan != want {
		t.Errorf("lbl makespan = %d, want sum of t_i = %d", s.Makespan, want)
	}
	if err := s.Validate(dg, Options{}); err != nil {
		t.Error(err)
	}
}

// TestLayerByLayerWithDuplication: duplicates shorten each layer to
// roughly t_i / d_i; total equals the rounded sum.
func TestLayerByLayerWithDuplication(t *testing.T) {
	_, m, dg := compileDeps(t, models.TinyYOLOv4, 416, 16, 26)
	s, err := Schedule(dg, LayerByLayer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(dg, Options{}); err != nil {
		t.Fatal(err)
	}
	// Each layer's span must not exceed ceil(t_i/d_i) by more than one
	// set's worth of rounding.
	for li, ls := range dg.Plan.Layers {
		span := s.EndOf(li) - s.StartOf(li)
		d := int64(m.Groups[li].Dup)
		ti := int64(ls.Group.Node.OutShape.Pixels())
		ideal := (ti + d - 1) / d
		maxSet := int64(0)
		for si := 0; si < ls.NumSets(); si++ {
			maxSet = max(maxSet, ls.Cycles(si))
		}
		if span > ideal+maxSet {
			t.Errorf("layer %d span %d exceeds t/d %d + one set %d", li, span, ideal, maxSet)
		}
	}
}

// TestCrossLayerNeverSlower: xinf makespan is at most lbl makespan, on
// every model and duplication setting.
func TestCrossLayerNeverSlower(t *testing.T) {
	cases := []struct {
		id    models.ID
		size  int
		extra int
	}{
		{models.TinyYOLOv4, 416, 0},
		{models.TinyYOLOv4, 416, 32},
		{models.TinyYOLOv3, 416, 16},
		{models.TinyBranchNet, 16, 0},
		{models.ResNet50, 64, 8},
		{models.TinyMLP, 8, 0},
	}
	for _, c := range cases {
		_, _, dg := compileDeps(t, c.id, c.size, c.extra, 26)
		lbl, err := Schedule(dg, LayerByLayer, Options{})
		if err != nil {
			t.Fatal(err)
		}
		xinf, err := Schedule(dg, CrossLayer, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if xinf.Makespan > lbl.Makespan {
			t.Errorf("%s x=%d: xinf %d > lbl %d", c.id, c.extra, xinf.Makespan, lbl.Makespan)
		}
		if err := xinf.Validate(dg, Options{}); err != nil {
			t.Errorf("%s: %v", c.id, err)
		}
		if err := lbl.Validate(dg, Options{}); err != nil {
			t.Errorf("%s: %v", c.id, err)
		}
	}
}

// TestCrossLayerActiveInvariant: total active cycles equal sum t_i in
// both modes (work conservation — the basis of paper Eq. 3).
func TestCrossLayerActiveInvariant(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyYOLOv4, 416, 32, 104)
	var want int64
	for _, ls := range dg.Plan.Layers {
		want += int64(ls.Group.Node.OutShape.Pixels())
	}
	for _, mode := range []Policy{LayerByLayer, CrossLayer} {
		s, err := Schedule(dg, mode, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, a := range s.LayerActive {
			got += a
		}
		if got != want {
			t.Errorf("%v: total active %d != total work %d", mode, got, want)
		}
		// Replica activity must sum to layer activity.
		for li := range s.LayerActive {
			var rep int64
			for _, a := range s.ReplicaActive[li] {
				rep += a
			}
			if rep != s.LayerActive[li] {
				t.Errorf("%v layer %d: replica sum %d != layer %d", mode, li, rep, s.LayerActive[li])
			}
		}
	}
}

// TestEdgeCostMonotone: adding dependency-edge cost cannot shorten the
// cross-layer makespan.
func TestEdgeCostMonotone(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyYOLOv4, 128, 8, 26)
	prev := int64(0)
	for _, cost := range []int64{0, 1, 5, 25} {
		c := cost
		opt := Options{}
		if c > 0 {
			opt.EdgeCost = func(deps.SetRef, int) int64 { return c }
		}
		s, err := Schedule(dg, CrossLayer, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(dg, opt); err != nil {
			t.Fatal(err)
		}
		if s.Makespan < prev {
			t.Errorf("cost %d: makespan %d < previous %d", c, s.Makespan, prev)
		}
		prev = s.Makespan
	}
}

// TestValidateDetectsCorruption: a corrupted schedule must fail
// validation in each specific way.
func TestValidateDetectsCorruption(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyBranchNet, 16, 0, 4)
	fresh := func() *Timeline {
		s, err := Schedule(dg, CrossLayer, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := fresh()
	// Find a set with at least one dependency and move it before the dep.
	found := false
	for li := range dg.Plan.Layers {
		for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
			if len(dg.DepsOf(li, si)) == 0 {
				continue
			}
			s.Items[dg.CSR.ID(li, si)] = 0
			found = true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no dependent set found")
	}
	if err := s.Validate(dg, Options{}); err == nil {
		t.Error("dependency violation not detected")
	}

	s = fresh()
	s.LayerActive[0] += 3
	if err := s.Validate(dg, Options{}); err == nil {
		t.Error("active-cycle corruption not detected")
	}

	// Layer-by-layer exclusivity.
	l := func() *Timeline {
		s, err := Schedule(dg, LayerByLayer, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}()
	// Pull layer 1 on top of layer 0 and renumber its replica chain
	// consistently so only the exclusivity check fires.
	starts := l.ItemsOf(1)
	shift := starts[0]
	for si := range starts {
		starts[si] -= shift
	}
	if err := l.Validate(dg, Options{}); err == nil {
		t.Error("layer-by-layer overlap not detected")
	}
}

// TestRoundRobinAssignment: set k runs on replica k mod d.
func TestRoundRobinAssignment(t *testing.T) {
	_, m, dg := compileDeps(t, models.TinyYOLOv4, 416, 32, 52)
	s, err := Schedule(dg, CrossLayer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for li := range dg.Plan.Layers {
		d := m.Groups[li].Dup
		for si := range s.ItemsOf(li) {
			if it := s.At(li, si); it.Replica != si%d {
				t.Fatalf("layer %d set %d on replica %d, want %d", li, si, it.Replica, si%d)
			}
		}
	}
}

// TestDeepPipelineChain: at fine set granularity a sequential conv chain
// pipelines, with cross-layer makespan well below the layer sum.
func TestDeepPipelineChain(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyConvNet, 32, 0, sets.FineGranularity)
	lbl, err := Schedule(dg, LayerByLayer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	xinf, err := Schedule(dg, CrossLayer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Without duplication the first conv (1024 pixels at 32x32) paces
	// the pipeline; cross-layer makespan must approach that bound with
	// only a small drain tail, far below the sequential sum.
	var bottleneck int64
	for _, ls := range dg.Plan.Layers {
		if ti := int64(ls.Group.Node.OutShape.Pixels()); ti > bottleneck {
			bottleneck = ti
		}
	}
	if xinf.Makespan >= lbl.Makespan {
		t.Fatalf("no pipelining: xinf %d vs lbl %d", xinf.Makespan, lbl.Makespan)
	}
	if xinf.Makespan > bottleneck+bottleneck/8 {
		t.Errorf("fine-grained chain barely pipelined: xinf %d vs bottleneck %d (lbl %d)",
			xinf.Makespan, bottleneck, lbl.Makespan)
	}
}

func TestPolicyNames(t *testing.T) {
	if CrossLayer.Name() != "xinf" || LayerByLayer.Name() != "lbl" || Windowed(4).Name() != "x4" {
		t.Error("policy names wrong")
	}
	if CrossLayer.Window() != Unbounded || LayerByLayer.Window() != 1 || Windowed(3).Window() != 3 {
		t.Error("policy windows wrong")
	}
	if Windowed(0) != Windowed(1) {
		t.Error("non-positive window not clamped")
	}
	if (Policy{}) != LayerByLayer || Windowed(1) == LayerByLayer || Windowed(Unbounded) == CrossLayer {
		t.Error("x1 or x2147483647 conflated with lbl or xinf")
	}
	for si, want := range []int{0, 1, 2, 0, 1, 2, 0} {
		if got := Replica(si, 3); got != want {
			t.Errorf("Replica(%d, 3) = %d, want %d (round-robin)", si, got, want)
		}
	}
	if _, err := Schedule(nil, CrossLayer, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestWindowedMonotoneAndBracketed is the xK property test: makespans
// are monotone non-increasing in K and bracketed by the two extremes —
// x1 equals lbl exactly, and a window at least the layer count equals
// xinf exactly.
func TestWindowedMonotoneAndBracketed(t *testing.T) {
	cases := []struct {
		id    models.ID
		size  int
		extra int
	}{
		{models.TinyYOLOv4, 416, 0},
		{models.TinyYOLOv4, 416, 32},
		{models.TinyYOLOv3, 416, 16},
		{models.TinyBranchNet, 16, 0},
		{models.ResNet50, 64, 8},
	}
	for _, c := range cases {
		_, _, dg := compileDeps(t, c.id, c.size, c.extra, 26)
		nl := len(dg.Plan.Layers)
		lbl, err := Schedule(dg, LayerByLayer, Options{})
		if err != nil {
			t.Fatal(err)
		}
		xinf, err := Schedule(dg, CrossLayer, Options{})
		if err != nil {
			t.Fatal(err)
		}
		prev := lbl.Makespan
		for k := 1; k <= nl+1; k++ {
			s, err := Schedule(dg, Windowed(k), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(dg, Options{}); err != nil {
				t.Fatalf("%s x%d: %v", c.id, k, err)
			}
			if s.Makespan > prev {
				t.Errorf("%s: x%d makespan %d > x%d makespan %d (not monotone)",
					c.id, k, s.Makespan, k-1, prev)
			}
			if s.Makespan > lbl.Makespan || s.Makespan < xinf.Makespan {
				t.Errorf("%s: x%d makespan %d outside [xinf %d, lbl %d]",
					c.id, k, s.Makespan, xinf.Makespan, lbl.Makespan)
			}
			if k == 1 && !s.Equal(lbl) {
				t.Errorf("%s: x1 timeline differs from lbl", c.id)
			}
			if k >= nl && !s.Equal(xinf) {
				t.Errorf("%s: x%d (>= %d layers) timeline differs from xinf", c.id, k, nl)
			}
			prev = s.Makespan
		}
	}
}

// TestWindowValidateDetectsViolation: pulling a layer inside another
// layer's admission window must fail validation.
func TestWindowValidateDetectsViolation(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyConvNet, 32, 0, 4)
	s, err := Schedule(dg, Windowed(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(dg, Options{}); err != nil {
		t.Fatal(err)
	}
	// Force the last layer to start at 0: with window 2 it must wait for
	// every layer but the previous one.
	nl := s.NumLayers()
	s.ItemsOf(nl - 1)[0] = 0
	if err := s.Validate(dg, Options{}); err == nil {
		t.Error("window violation not detected")
	}
}
