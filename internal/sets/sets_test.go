package sets

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/region"
)

func mapped(t *testing.T, id models.ID, inputSize, extra int) (*nn.Graph, *mapping.Mapping) {
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
	return g, m
}

// TestPartitionExactness: sets of every layer tile the OFM exactly at
// several granularities.
func TestPartitionExactness(t *testing.T) {
	g, m := mapped(t, models.TinyYOLOv4, 128, 16)
	for _, target := range []int{1, 4, 26, 1000, FineGranularity} {
		plan, err := Determine(g, m, Options{TargetSets: target})
		if err != nil {
			t.Fatal(err)
		}
		for _, ls := range plan.Layers {
			out := ls.Group.Node.OutShape
			full := region.Full(out.H, out.W, out.C)
			boxes := make([]region.Box, ls.NumSets())
			var cycles int64
			for i := range boxes {
				boxes[i] = ls.Box(i)
				cycles += ls.Cycles(i)
				if ls.Cycles(i) != int64(boxes[i].Pixels()) {
					t.Fatalf("set cycles %d != pixels %d", ls.Cycles(i), boxes[i].Pixels())
				}
			}
			if !region.CoversExactly(full, boxes) {
				t.Fatalf("layer %v target %d: sets do not tile OFM", ls.Group.Node, target)
			}
			if cycles != int64(out.Pixels()) {
				t.Fatalf("layer %v: total cycles %d != OFM pixels %d", ls.Group.Node, cycles, out.Pixels())
			}
		}
	}
}

// TestAlignmentRespectsPooling: layers feeding 2x2 pooling must have
// even internal boundaries.
func TestAlignmentRespectsPooling(t *testing.T) {
	g, m := mapped(t, models.TinyYOLOv3, 128, 0)
	plan, err := Determine(g, m, Options{TargetSets: 9})
	if err != nil {
		t.Fatal(err)
	}
	// conv2d feeds a 2x2/2 max pool: align 2.
	found := false
	for _, ls := range plan.Layers {
		if ls.Group.Node.Name != "conv2d" {
			continue
		}
		found = true
		if ls.AlignH != 2 {
			t.Errorf("conv2d alignH = %d, want 2", ls.AlignH)
		}
		for si := 0; si < ls.NumSets(); si++ {
			if b := ls.Box(si); b.H1 != ls.Group.Node.OutShape.H && b.H1%2 != 0 {
				t.Errorf("boundary %d not aligned", b.H1)
			}
		}
	}
	if !found {
		t.Fatal("conv2d not in plan")
	}
	// The head conv (conv2d_9) feeds the output: align 1.
	for _, ls := range plan.Layers {
		if ls.Group.Node.Name == "conv2d_9" && ls.AlignH != 1 {
			t.Errorf("head conv alignH = %d, want 1", ls.AlignH)
		}
	}
}

// TestStrideOnePoolAlignment: TinyYOLOv3's 2x2 stride-1 pool implies
// alignment lcm(1,2)... stride 1 contributes 1, so the producing conv
// keeps its other constraints only.
func TestStrideOnePoolAlignment(t *testing.T) {
	g, m := mapped(t, models.TinyYOLOv3, 416, 0)
	plan, err := Determine(g, m, Options{TargetSets: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range plan.Layers {
		if ls.Group.Node.Name == "conv2d_5" {
			// Feeds maxpool 2x2 stride 1 -> align stays 1.
			if ls.AlignH != 1 {
				t.Errorf("conv2d_5 alignH = %d, want 1", ls.AlignH)
			}
		}
	}
}

// TestDupRounding: duplicated layers get a set count that is a multiple
// of the duplication factor (even round-robin) where geometry allows.
func TestDupRounding(t *testing.T) {
	g, m := mapped(t, models.TinyYOLOv4, 416, 32)
	plan, err := Determine(g, m, Options{TargetSets: 26})
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range plan.Layers {
		d := ls.Group.Dup
		if d <= 1 {
			continue
		}
		if ls.NumSets()%d != 0 && ls.NumSets() >= d {
			// Rounding target to a multiple of d can still be clamped by
			// alignment units; only flag clear violations.
			units := (ls.Group.Node.OutShape.H + ls.AlignH - 1) / ls.AlignH
			if ls.NumSets() < units {
				t.Errorf("layer %v: %d sets not a multiple of dup %d (units %d)",
					ls.Group.Node, ls.NumSets(), d, units)
			}
		}
	}
}

// TestGridIndexMatchesScan: Intersecting must agree with a brute-force
// scan over all set boxes.
func TestGridIndexMatchesScan(t *testing.T) {
	g, m := mapped(t, models.TinyYOLOv4, 128, 16)
	plan, err := Determine(g, m, Options{TargetSets: 37})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		ls := &plan.Layers[r.Intn(len(plan.Layers))]
		out := ls.Group.Node.OutShape
		h0 := r.Intn(out.H + 4)
		w0 := r.Intn(out.W + 4)
		box := region.NewBox(h0-2, h0+r.Intn(8), w0-2, w0+r.Intn(8), 0, out.C)
		got := ls.Intersecting(box, nil)
		want := map[int]bool{}
		for i := 0; i < ls.NumSets(); i++ {
			if ls.Box(i).Intersects(box) {
				want[i] = true
			}
		}
		// Intersecting may return supersets only if those boxes really
		// intersect — require exact agreement.
		if len(got) != len(want) {
			return false
		}
		for _, i := range got {
			if !want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFineGranularityIsPerPixel: without pooling constraints the finest
// partition is one set per OFM pixel.
func TestFineGranularityIsPerPixel(t *testing.T) {
	g, m := mapped(t, models.TinyBranchNet, 16, 0)
	plan, err := Determine(g, m, Options{TargetSets: FineGranularity})
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range plan.Layers {
		out := ls.Group.Node.OutShape
		unitsH := (out.H + ls.AlignH - 1) / ls.AlignH
		unitsW := (out.W + ls.AlignW - 1) / ls.AlignW
		if ls.NumSets() != unitsH*unitsW {
			t.Errorf("layer %v: %d sets, want %d (finest aligned)",
				ls.Group.Node, ls.NumSets(), unitsH*unitsW)
		}
	}
}

// TestRasterOrder: sets are in raster order (row-major by H0, then W0).
func TestRasterOrder(t *testing.T) {
	g, m := mapped(t, models.TinyYOLOv4, 128, 0)
	plan, err := Determine(g, m, Options{TargetSets: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range plan.Layers {
		for i := 1; i < ls.NumSets(); i++ {
			a, b := ls.Box(i-1), ls.Box(i)
			if b.H0 < a.H0 || (b.H0 == a.H0 && b.W0 <= a.W0 && !(b.W0 > a.W0)) && b.W0 < a.W0 {
				t.Fatalf("layer %v: sets out of raster order at %d", ls.Group.Node, i)
			}
		}
	}
}

func TestTotalCycles(t *testing.T) {
	g, m := mapped(t, models.TinyBranchNet, 16, 0)
	plan, err := Determine(g, m, Options{TargetSets: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range plan.Layers {
		if got := ls.TotalCycles(); got != int64(ls.Group.Node.OutShape.Pixels()) {
			t.Errorf("TotalCycles = %d", got)
		}
	}
}

// TestCheckGridRejects feeds checkGrid every defect a set grid can
// carry. Each must be rejected: together the rows show the O(GH+GW)
// bounds check catches everything the per-tile empty / containment /
// volume-sum loop it replaced caught.
func TestCheckGridRejects(t *testing.T) {
	const h, w, c = 8, 6, 4
	good := func() LayerSets {
		return LayerSets{GH: 3, GW: 2, C: c, RowBounds: []int{0, 2, 5, 8}, ColBounds: []int{0, 3, 6}}
	}
	if ls := good(); ls.checkGrid(h, w) != nil {
		t.Fatalf("well-formed grid rejected: %v", ls.checkGrid(h, w))
	}
	for _, tc := range []struct {
		name string
		mut  func(*LayerSets)
	}{
		{"gap: grid drops its last row", func(ls *LayerSets) { ls.GH = 2 }},
		{"gap: grid drops its last column", func(ls *LayerSets) { ls.GW = 1 }},
		{"stray bound: bounds outlast the grid", func(ls *LayerSets) { ls.GH, ls.RowBounds = 2, []int{0, 5, 8, 9} }},
		{"missing bound: grid outlasts the bounds", func(ls *LayerSets) { ls.GH = 4 }},
		{"overlap: row bound steps back", func(ls *LayerSets) { ls.RowBounds = []int{0, 5, 2, 8} }},
		{"overlap: column bound steps back", func(ls *LayerSets) { ls.ColBounds = []int{0, 4, 3, 6} }},
		{"empty set: repeated row bound", func(ls *LayerSets) { ls.RowBounds = []int{0, 2, 2, 8} }},
		{"non-zero start: rows", func(ls *LayerSets) { ls.RowBounds = []int{1, 2, 5, 8} }},
		{"non-zero start: columns", func(ls *LayerSets) { ls.ColBounds = []int{1, 3, 6} }},
		{"short end: rows", func(ls *LayerSets) { ls.RowBounds = []int{0, 2, 5, 7} }},
		{"short end: columns", func(ls *LayerSets) { ls.ColBounds = []int{0, 3, 5} }},
		{"outside OFM: rows run past the end", func(ls *LayerSets) { ls.RowBounds = []int{0, 2, 5, 9} }},
		{"no rows", func(ls *LayerSets) { ls.GH, ls.RowBounds = 0, []int{0} }},
		{"C = 0", func(ls *LayerSets) { ls.C = 0 }},
	} {
		ls := good()
		tc.mut(&ls)
		if err := ls.checkGrid(h, w); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDetermineAllocsIndependentOfSetCount pins Stage I's memory model:
// sets are grid cells derived from two boundary arrays, so Determine's
// allocation count depends on the layer count only, never on how many
// sets those layers are cut into.
func TestDetermineAllocsIndependentOfSetCount(t *testing.T) {
	g, m := mapped(t, models.TinyYOLOv4, 416, 32)
	allocs := func(target int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Determine(g, m, Options{TargetSets: target}); err != nil {
				t.Fatal(err)
			}
		})
	}
	coarse, fine := allocs(DefaultTargetSets), allocs(FineGranularity)
	if coarse != fine {
		t.Errorf("Determine allocs: %v at %d sets/layer, %v at FineGranularity; want equal",
			coarse, DefaultTargetSets, fine)
	}
}
