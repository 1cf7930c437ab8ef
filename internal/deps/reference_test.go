package deps

// This file preserves the original recursive Stage II formulation as a
// test-only reference: requiredIFM computes a set's receptive field and
// walkBack pulls it backward through the non-base operators node by
// node, allocating intermediate regions as it goes. The production
// builder (deps.go/xform.go) compiles the same chains into flattened
// route transforms once per layer; referenceBuild and the differential
// test below pin the two implementations to identical CSR output.

import (
	"fmt"
	"slices"
	"testing"

	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/region"
	"clsacim/internal/sets"
	"clsacim/internal/tensor"
)

type srcRegion struct {
	src *nn.Node
	box region.Box
}

// requiredIFM returns the IFM regions a base layer needs to compute the
// OFM box (the intra-layer dependency of paper Stage I). Convolutions
// need the receptive field; Dense needs the whole input.
func requiredIFM(n *nn.Node, out region.Box) ([]srcRegion, error) {
	in := n.Inputs[0]
	s := in.OutShape
	switch op := n.Op.(type) {
	case *nn.Conv2D:
		if op.Pad.Any() {
			return nil, fmt.Errorf("conv still padded; canonicalize first")
		}
		rf := region.NewBox(
			out.H0*op.SH, (out.H1-1)*op.SH+op.KH,
			out.W0*op.SW, (out.W1-1)*op.SW+op.KW,
			0, s.C,
		).ClampTo(s.H, s.W, s.C)
		return []srcRegion{{in, rf}}, nil
	case *nn.DepthwiseConv2D:
		if op.Pad.Any() {
			return nil, fmt.Errorf("depthwise conv still padded; canonicalize first")
		}
		// Depthwise is channel-preserving: output channels [C0, C1)
		// read exactly input channels [C0, C1).
		rf := region.NewBox(
			out.H0*op.SH, (out.H1-1)*op.SH+op.KH,
			out.W0*op.SW, (out.W1-1)*op.SW+op.KW,
			out.C0, out.C1,
		).ClampTo(s.H, s.W, s.C)
		return []srcRegion{{in, rf}}, nil
	case *nn.Dense:
		return []srcRegion{{in, region.Full(s.H, s.W, s.C)}}, nil
	default:
		return nil, fmt.Errorf("%v is not a base layer", n)
	}
}

// walkBack propagates a required region backward from node n (meaning:
// "this region of n's output is needed") until it reaches base layers or
// the graph input, appending intersected predecessor sets to acc.
func walkBack(n *nn.Node, r region.Box, plan *sets.Plan, acc []SetRef) ([]SetRef, error) {
	if r.Empty() {
		return acc, nil
	}
	if n.Kind() == nn.OpInput {
		return acc, nil // network input: available at t = 0
	}
	if li, ok := plan.ByNode[n]; ok {
		ls := &plan.Layers[li]
		for _, si := range ls.Intersecting(r, nil) {
			iv := ls.Box(si).Intersect(r)
			if iv.Empty() {
				continue
			}
			acc = append(acc, SetRef{Layer: li, Set: si, Vol: iv.Volume()})
		}
		return acc, nil
	}
	if n.IsBase() {
		return acc, fmt.Errorf("base layer %v is not in the set plan (unmapped)", n)
	}
	srcs, err := backward(n, r)
	if err != nil {
		return acc, err
	}
	for _, s := range srcs {
		if acc, err = walkBack(s.src, s.box, plan, acc); err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// backward maps a region of n's output space to regions of its inputs'
// output spaces (exact for every non-base operator).
func backward(n *nn.Node, r region.Box) ([]srcRegion, error) {
	in := n.Inputs
	switch op := n.Op.(type) {
	case *nn.BiasAdd, *nn.Activation, *nn.BatchNorm:
		return []srcRegion{{in[0], r}}, nil

	case *nn.Pad:
		s := in[0].OutShape
		return []srcRegion{{in[0],
			r.Translate(-op.Pad.Top, -op.Pad.Left, 0).ClampTo(s.H, s.W, s.C)}}, nil

	case *nn.MaxPool:
		s := in[0].OutShape
		b := region.NewBox(
			r.H0*op.SH-op.Pad.Top, (r.H1-1)*op.SH+op.KH-op.Pad.Top,
			r.W0*op.SW-op.Pad.Left, (r.W1-1)*op.SW+op.KW-op.Pad.Left,
			r.C0, r.C1,
		).ClampTo(s.H, s.W, s.C)
		return []srcRegion{{in[0], b}}, nil

	case *nn.AvgPool:
		s := in[0].OutShape
		if op.Global {
			return []srcRegion{{in[0], region.Full(s.H, s.W, s.C).
				Intersect(region.NewBox(0, s.H, 0, s.W, r.C0, r.C1))}}, nil
		}
		b := region.NewBox(
			r.H0*op.SH, (r.H1-1)*op.SH+op.KH,
			r.W0*op.SW, (r.W1-1)*op.SW+op.KW,
			r.C0, r.C1,
		).ClampTo(s.H, s.W, s.C)
		return []srcRegion{{in[0], b}}, nil

	case *nn.Concat:
		var out []srcRegion
		off := 0
		for _, src := range in {
			s := src.OutShape
			var local region.Box
			switch op.Axis {
			case nn.AxisH:
				local = r.Intersect(region.NewBox(off, off+s.H, r.W0, r.W1, r.C0, r.C1)).
					Translate(-off, 0, 0)
				off += s.H
			case nn.AxisW:
				local = r.Intersect(region.NewBox(r.H0, r.H1, off, off+s.W, r.C0, r.C1)).
					Translate(0, -off, 0)
				off += s.W
			case nn.AxisC:
				local = r.Intersect(region.NewBox(r.H0, r.H1, r.W0, r.W1, off, off+s.C)).
					Translate(0, 0, -off)
				off += s.C
			}
			if !local.Empty() {
				out = append(out, srcRegion{src, local})
			}
		}
		return out, nil

	case *nn.Add:
		return []srcRegion{{in[0], r}, {in[1], r}}, nil

	case *nn.UpSample:
		f := op.Factor
		b := region.NewBox(
			r.H0/f, (r.H1+f-1)/f,
			r.W0/f, (r.W1+f-1)/f,
			r.C0, r.C1,
		)
		return []srcRegion{{in[0], b}}, nil

	case *nn.Slice:
		return []srcRegion{{in[0], r.Translate(op.Box.H0, op.Box.W0, op.Box.C0)}}, nil

	case *nn.Flatten:
		// A flattened channel range maps to a non-rectangular HWC set;
		// conservatively require the whole input.
		s := in[0].OutShape
		return []srcRegion{{in[0], region.Full(s.H, s.W, s.C)}}, nil

	default:
		return nil, fmt.Errorf("deps: no backward rule for %v", n.Kind())
	}
}

// dedupe sorts refs by (Layer, Set) and merges duplicates (a set can be
// reached over several graph paths), keeping the maximum volume.
func dedupe(refs []SetRef) []SetRef {
	if len(refs) == 0 {
		return nil
	}
	slices.SortFunc(refs, func(a, b SetRef) int {
		if a.Layer != b.Layer {
			return a.Layer - b.Layer
		}
		return a.Set - b.Set
	})
	n := 0
	for _, r := range refs[1:] {
		if refs[n].Layer == r.Layer && refs[n].Set == r.Set {
			if r.Vol > refs[n].Vol {
				refs[n].Vol = r.Vol
			}
			continue
		}
		n++
		refs[n] = r
	}
	return refs[:n+1]
}

// referenceDeps computes the per-set dependency lists with the original
// recursive walk.
func referenceDeps(t *testing.T, plan *sets.Plan) [][][]SetRef {
	t.Helper()
	deps := make([][][]SetRef, len(plan.Layers))
	for li := range plan.Layers {
		ls := &plan.Layers[li]
		deps[li] = make([][]SetRef, ls.NumSets())
		node := ls.Group.Node
		for si := range deps[li] {
			req, err := requiredIFM(node, ls.Box(si))
			if err != nil {
				t.Fatalf("reference: %v set %d: %v", node, si, err)
			}
			var acc []SetRef
			for _, r := range req {
				if acc, err = walkBack(r.src, r.box, plan, acc); err != nil {
					t.Fatalf("reference: %v set %d: %v", node, si, err)
				}
			}
			deps[li][si] = dedupe(acc)
		}
	}
	return deps
}

// TestBuildMatchesReference: the route-compiled parallel builder must
// produce exactly the dependency relation of the recursive reference —
// same predecessors, same order, same volumes — across topologies
// (branches, concat trees, upsampling, depthwise, residual adds,
// dense heads) and granularities.
func TestBuildMatchesReference(t *testing.T) {
	cases := []struct {
		id         models.ID
		size       int
		targetSets int
		extraPEs   int
	}{
		{models.TinyBranchNet, 16, 4, 0},
		{models.TinyBranchNet, 16, sets.FineGranularity, 0},
		{models.TinyDWNet, 16, 4, 0},
		{models.TinyYOLOv4, 64, 3, 0},
		{models.TinyYOLOv4, 64, 13, 8},
		{models.TinyMLP, 8, 4, 0},
		{models.ResNet50, 32, 3, 0},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.id, c.targetSets), func(t *testing.T) {
			_, dg := buildDeps(t, c.id, c.size, c.targetSets, c.extraPEs)
			want := referenceDeps(t, dg.Plan)
			for li := range want {
				for si := range want[li] {
					got := dg.DepsOf(li, si)
					if !slices.Equal(got, want[li][si]) {
						t.Fatalf("layer %d set %d: deps diverge\n got %v\nwant %v",
							li, si, got, want[li][si])
					}
				}
			}
		})
	}
}

// TestBuildMergesRouteDuplicates covers the one case where Build's
// first-pass edge bound is loose: two routes of one consumer reach the
// same predecessor set (here a concat of a layer's output with a
// stride-1 pooling of it), so Build merges duplicate hits. The result
// must equal the recursive reference, and the CSR must keep no slack
// from the bound.
func TestBuildMergesRouteDuplicates(t *testing.T) {
	g := nn.NewGraph()
	in := g.AddInput("input", tensor.NewShape(12, 12, 4))
	a := g.Add("a", &nn.Conv2D{KH: 1, KW: 1, SH: 1, SW: 1, KI: 4, KO: 8}, in)
	pool := g.Add("pool", &nn.MaxPool{KH: 3, KW: 3, SH: 1, SW: 1, Pad: nn.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}}, a)
	cat := g.Add("cat", &nn.Concat{Axis: nn.AxisC}, a, pool)
	b := g.Add("b", &nn.Conv2D{KH: 1, KW: 1, SH: 1, SW: 1, KI: 16, KO: 8}, cat)
	g.MarkOutput(b)
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 256, Cols: 256})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mapping.Solve(plan, plan.MinPEs, mapping.SolverNone)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: 16})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	bound := 0
	for li := range sp.Layers {
		_, n, err := boundLayer(sp, li, dg.CSR.LayerOff, new(buildScratch))
		if err != nil {
			t.Fatal(err)
		}
		bound += n
	}
	if bound <= dg.NumEdges() {
		t.Fatalf("edge bound %d is tight on %d edges; the graph does not exercise the merge", bound, dg.NumEdges())
	}
	if cap(dg.CSR.Pred) != dg.NumEdges() || cap(dg.CSR.PredVol) != dg.NumEdges() {
		t.Errorf("edge arrays keep capacity %d/%d for %d edges", cap(dg.CSR.Pred), cap(dg.CSR.PredVol), dg.NumEdges())
	}
	want := referenceDeps(t, sp)
	for li := range want {
		for si := range want[li] {
			if got := dg.DepsOf(li, si); !slices.Equal(got, want[li][si]) {
				t.Fatalf("layer %d set %d: deps diverge\n got %v\nwant %v", li, si, got, want[li][si])
			}
		}
	}
}
