package deps

import (
	"fmt"
	"testing"

	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/region"
	"clsacim/internal/sets"
)

// The availability oracle is an independent, element-granular check of
// Stage II: for a set sigma with dependency list D, mark exactly the
// elements of D as produced, propagate availability forward through the
// non-base operators, and verify every input element sigma's receptive
// field needs is available (sufficiency). Minimality is checked by
// removing one dependency at a time and requiring some needed element to
// become unavailable.

// avail maps each node to a per-element availability mask of its output.
type avail map[*nn.Node][]bool

func fullMask(n *nn.Node, v bool) []bool {
	m := make([]bool, n.OutShape.Elems())
	for i := range m {
		m[i] = v
	}
	return m
}

// propagate computes availability masks for all non-base nodes given
// fixed masks for the input node and all base-layer nodes.
func propagate(t *testing.T, g *nn.Graph, a avail) {
	t.Helper()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range order {
		if _, done := a[n]; done {
			continue // input or base layer: mask fixed by caller
		}
		if n.IsBase() {
			t.Fatalf("base node %v without fixed mask", n)
		}
		a[n] = forwardMask(t, n, a)
	}
}

func forwardMask(t *testing.T, n *nn.Node, a avail) []bool {
	t.Helper()
	s := n.OutShape
	out := make([]bool, s.Elems())
	in := n.Inputs
	switch op := n.Op.(type) {
	case *nn.BiasAdd, *nn.Activation, *nn.BatchNorm:
		copy(out, a[in[0]])
	case *nn.Pad:
		src := in[0].OutShape
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				for c := 0; c < s.C; c++ {
					ih, iw := h-op.Pad.Top, w-op.Pad.Left
					v := true // constant padding is always available
					if ih >= 0 && ih < src.H && iw >= 0 && iw < src.W {
						v = a[in[0]][src.Index(ih, iw, c)]
					}
					out[s.Index(h, w, c)] = v
				}
			}
		}
	case *nn.MaxPool:
		poolMask(out, n, in[0], a, op.KH, op.KW, op.SH, op.SW, op.Pad)
	case *nn.AvgPool:
		kh, kw, sh, sw := op.KH, op.KW, op.SH, op.SW
		if op.Global {
			src := in[0].OutShape
			kh, kw, sh, sw = src.H, src.W, src.H, src.W
		}
		poolMask(out, n, in[0], a, kh, kw, sh, sw, nn.Padding{})
	case *nn.Concat:
		off := 0
		for _, src := range in {
			ss := src.OutShape
			for h := 0; h < ss.H; h++ {
				for w := 0; w < ss.W; w++ {
					for c := 0; c < ss.C; c++ {
						v := a[src][ss.Index(h, w, c)]
						switch op.Axis {
						case nn.AxisH:
							out[s.Index(h+off, w, c)] = v
						case nn.AxisW:
							out[s.Index(h, w+off, c)] = v
						case nn.AxisC:
							out[s.Index(h, w, c+off)] = v
						}
					}
				}
			}
			switch op.Axis {
			case nn.AxisH:
				off += ss.H
			case nn.AxisW:
				off += ss.W
			case nn.AxisC:
				off += ss.C
			}
		}
	case *nn.Add:
		for i := range out {
			out[i] = a[in[0]][i] && a[in[1]][i]
		}
	case *nn.UpSample:
		src := in[0].OutShape
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				for c := 0; c < s.C; c++ {
					out[s.Index(h, w, c)] = a[in[0]][src.Index(h/op.Factor, w/op.Factor, c)]
				}
			}
		}
	case *nn.Slice:
		src := in[0].OutShape
		b := op.Box
		for h := b.H0; h < b.H1; h++ {
			for w := b.W0; w < b.W1; w++ {
				for c := b.C0; c < b.C1; c++ {
					out[s.Index(h-b.H0, w-b.W0, c-b.C0)] = a[in[0]][src.Index(h, w, c)]
				}
			}
		}
	case *nn.Flatten:
		copy(out, a[in[0]])
	default:
		t.Fatalf("oracle: unhandled op %v", n.Kind())
	}
	return out
}

// poolMask marks a pooled element available iff its whole (clamped)
// window is available.
func poolMask(out []bool, node, src *nn.Node, a avail, kh, kw, sh, sw int, pad nn.Padding) {
	ss := src.OutShape
	os := node.OutShape
	for y := 0; y < os.H; y++ {
		for x := 0; x < os.W; x++ {
			for c := 0; c < ss.C; c++ {
				ok := true
				for dh := 0; dh < kh && ok; dh++ {
					ih := y*sh - pad.Top + dh
					if ih < 0 || ih >= ss.H {
						continue
					}
					for dw := 0; dw < kw; dw++ {
						iw := x*sw - pad.Left + dw
						if iw < 0 || iw >= ss.W {
							continue
						}
						if !a[src][ss.Index(ih, iw, c)] {
							ok = false
							break
						}
					}
				}
				out[os.Index(y, x, c)] = ok
			}
		}
	}
}

// requiredElems returns the set of input-element indices a base layer
// needs to compute its OFM box.
func requiredElems(t *testing.T, n *nn.Node, b region.Box) []int {
	t.Helper()
	src := n.Inputs[0].OutShape
	var idx []int
	switch op := n.Op.(type) {
	case *nn.Conv2D:
		for y := b.H0; y < b.H1; y++ {
			for x := b.W0; x < b.W1; x++ {
				for kh := 0; kh < op.KH; kh++ {
					for kw := 0; kw < op.KW; kw++ {
						ih, iw := y*op.SH+kh, x*op.SW+kw
						if ih >= src.H || iw >= src.W {
							t.Fatalf("receptive field outside IFM")
						}
						for c := 0; c < src.C; c++ {
							idx = append(idx, src.Index(ih, iw, c))
						}
					}
				}
			}
		}
	case *nn.DepthwiseConv2D:
		for y := b.H0; y < b.H1; y++ {
			for x := b.W0; x < b.W1; x++ {
				for kh := 0; kh < op.KH; kh++ {
					for kw := 0; kw < op.KW; kw++ {
						ih, iw := y*op.SH+kh, x*op.SW+kw
						if ih >= src.H || iw >= src.W {
							t.Fatalf("depthwise receptive field outside IFM")
						}
						// Channel-preserving: only the set's own channels.
						for c := b.C0; c < b.C1; c++ {
							idx = append(idx, src.Index(ih, iw, c))
						}
					}
				}
			}
		}
	case *nn.Dense:
		for i := 0; i < src.Elems(); i++ {
			idx = append(idx, i)
		}
	default:
		t.Fatalf("requiredElems: not a base layer: %v", n)
	}
	return idx
}

// oracleCheck validates deps of (li, si): sufficiency always, minimality
// when checkMinimal is set.
func oracleCheck(t *testing.T, g *nn.Graph, dg *Graph, li, si int, checkMinimal bool) {
	t.Helper()
	plan := dg.Plan
	target := plan.Layers[li].Group.Node
	need := requiredElems(t, target, plan.Layers[li].Box(si))
	refs := dg.DepsOf(li, si)

	run := func(skip int) bool {
		a := make(avail)
		a[g.Input] = fullMask(g.Input, true)
		for lj := range plan.Layers {
			node := plan.Layers[lj].Group.Node
			a[node] = fullMask(node, false)
		}
		for i, r := range refs {
			if i == skip {
				continue
			}
			node := plan.Layers[r.Layer].Group.Node
			mask := a[node]
			b := plan.Layers[r.Layer].Box(r.Set)
			s := node.OutShape
			for h := b.H0; h < b.H1; h++ {
				for w := b.W0; w < b.W1; w++ {
					for c := b.C0; c < b.C1; c++ {
						mask[s.Index(h, w, c)] = true
					}
				}
			}
		}
		propagate(t, g, a)
		srcMask := a[target.Inputs[0]]
		for _, i := range need {
			if !srcMask[i] {
				return false
			}
		}
		return true
	}

	if !run(-1) {
		t.Errorf("layer %d set %d: dependencies insufficient (missing input elements)", li, si)
	}
	if checkMinimal {
		for i := range refs {
			if run(i) {
				t.Errorf("layer %d set %d: dependency %d/%d (L%d/S%d) is unnecessary",
					li, si, i, len(refs), refs[i].Layer, refs[i].Set)
			}
		}
	}
}

// buildDeps compiles a model down to a dependency graph at the given
// granularity.
func buildDeps(t *testing.T, id models.ID, inputSize, targetSets, extraPEs int) (*nn.Graph, *Graph) {
	t.Helper()
	g := models.MustBuild(id, models.Options{InputSize: inputSize})
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	pe := im2col.PEDims{Rows: 256, Cols: 256}
	plan, err := mapping.Analyze(g, pe)
	if err != nil {
		t.Fatal(err)
	}
	solver := mapping.SolverNone
	if extraPEs > 0 {
		solver = mapping.SolverDP
	}
	sol, err := mapping.Solve(plan, plan.MinPEs+extraPEs, solver)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extraPEs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: targetSets})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return g, dg
}

// TestOracleTinyBranchNet checks every set of the branchy test network
// (Add, Concat, UpSample, stride-2) for sufficiency and minimality.
func TestOracleTinyBranchNet(t *testing.T) {
	g, dg := buildDeps(t, models.TinyBranchNet, 16, 4, 0)
	for li := range dg.Plan.Layers {
		for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
			oracleCheck(t, g, dg, li, si, true)
		}
	}
}

// TestOracleTinyYOLOv4 checks the CSP topology (grouped-route slices,
// concat trees, stride-1 pooling, upsample merge) at 64x64 input.
func TestOracleTinyYOLOv4(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle cross-check; run without -short")
	}
	g, dg := buildDeps(t, models.TinyYOLOv4, 64, 3, 0)
	for li := range dg.Plan.Layers {
		for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
			oracleCheck(t, g, dg, li, si, true)
		}
	}
}

// TestOracleTinyYOLOv3Finer repeats at finer granularity where set
// boundaries stop aligning with pooling windows.
func TestOracleTinyYOLOv3Finer(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle cross-check; run without -short")
	}
	g, dg := buildDeps(t, models.TinyYOLOv3, 64, 7, 0)
	for li := range dg.Plan.Layers {
		for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
			oracleCheck(t, g, dg, li, si, true)
		}
	}
}

// TestOracleTinyDWNet checks depthwise layers: channel-preserving
// dependencies through depthwise-separable blocks.
func TestOracleTinyDWNet(t *testing.T) {
	g, dg := buildDeps(t, models.TinyDWNet, 16, 4, 0)
	for li := range dg.Plan.Layers {
		for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
			oracleCheck(t, g, dg, li, si, true)
		}
	}
}

// TestOracleResNetBlock exercises residual Add + projection at small
// scale, including global average pooling.
func TestOracleResNetBlock(t *testing.T) {
	g, dg := buildDeps(t, models.ResNet50, 32, 3, 0)
	// Limit to the first 12 layers to keep the oracle fast; they cover
	// stem + pooling + the first bottleneck (projection, add).
	for li := 0; li < 12 && li < len(dg.Plan.Layers); li++ {
		for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
			oracleCheck(t, g, dg, li, si, true)
		}
	}
}

func TestDepsSortedAndDeduped(t *testing.T) {
	_, dg := buildDeps(t, models.TinyYOLOv4, 64, 5, 0)
	for li := range dg.Plan.Layers {
		for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
			refs := dg.DepsOf(li, si)
			for i := 1; i < len(refs); i++ {
				a, b := refs[i-1], refs[i]
				if a.Layer > b.Layer || (a.Layer == b.Layer && a.Set >= b.Set) {
					t.Fatalf("layer %d set %d: deps not sorted/deduped: %v", li, si, refs)
				}
			}
			for _, r := range refs {
				if r.Vol <= 0 {
					t.Fatalf("layer %d set %d: dep volume %d", li, si, r.Vol)
				}
			}
		}
	}
	if dg.NumSets() == 0 || dg.NumEdges() == 0 {
		t.Error("degenerate dependency graph")
	}
}

// TestDepsAcyclicForward: every dependency must reference a strictly
// earlier layer (plan order is topological).
func TestDepsAcyclicForward(t *testing.T) {
	for _, id := range []models.ID{models.TinyBranchNet, models.TinyYOLOv4, models.ResNet50} {
		_, dg := buildDeps(t, id, 32, 4, 0)
		for li := range dg.Plan.Layers {
			for si := 0; si < dg.Plan.Layers[li].NumSets(); si++ {
				for _, r := range dg.DepsOf(li, si) {
					if r.Layer >= li {
						t.Fatalf("%s: layer %d set %d depends on layer %d (not earlier)",
							id, li, si, r.Layer)
					}
				}
			}
		}
	}
}

// TestFirstLayerHasNoDeps: sets of the first base layer read only the
// network input.
func TestFirstLayerHasNoDeps(t *testing.T) {
	_, dg := buildDeps(t, models.TinyYOLOv4, 64, 4, 0)
	for si := 0; si < dg.Plan.Layers[0].NumSets(); si++ {
		if refs := dg.DepsOf(0, si); len(refs) != 0 {
			t.Errorf("first layer set %d has deps %v", si, refs)
		}
	}
}

func TestBuildRejectsUnmappedBase(t *testing.T) {
	g, dg := buildDeps(t, models.TinyBranchNet, 16, 4, 0)
	// Remove one layer from the plan index to simulate an unmapped base
	// layer on a path.
	victim := dg.Plan.Layers[1].Group.Node
	delete(dg.Plan.ByNode, victim)
	if _, err := Build(g, dg.Plan); err == nil {
		t.Error("unmapped base layer not detected")
	}
}

func ExampleSetRef() {
	r := SetRef{Layer: 2, Set: 5, Vol: 128}
	fmt.Printf("L%d/S%d vol=%d\n", r.Layer, r.Set, r.Vol)
	// Output: L2/S5 vol=128
}
