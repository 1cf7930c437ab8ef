package deps

import (
	"fmt"
	"sync"
	"testing"

	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/sets"
)

func buildGraph(t *testing.T, id models.ID, inputSize, targetSets int) *Graph {
	t.Helper()
	g := models.MustBuild(id, models.Options{InputSize: inputSize})
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
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: targetSets})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// TestCSRMirrorsDeps: the flat CSR arrays must encode exactly the
// per-set dependency lists of the recursive reference implementation in
// both directions, with matching volumes and sorted runs, across models
// and granularities.
func TestCSRMirrorsDeps(t *testing.T) {
	cases := []struct {
		id         models.ID
		size       int
		targetSets int
	}{
		{models.TinyBranchNet, 16, 4},
		{models.TinyYOLOv4, 416, 26},
		{models.TinyConvNet, 32, sets.FineGranularity},
		{models.TinyMLP, 8, 4},
	}
	for _, c := range cases {
		dg := buildGraph(t, c.id, c.size, c.targetSets)
		csr := dg.CSR
		if csr == nil {
			t.Fatalf("%s: Build left CSR nil", c.id)
		}
		if csr.NumLayers() != len(dg.Plan.Layers) {
			t.Fatalf("%s: CSR has %d layers, plan %d", c.id, csr.NumLayers(), len(dg.Plan.Layers))
		}
		if csr.NumSets() != dg.NumSets() || csr.NumEdges() != dg.NumEdges() {
			t.Fatalf("%s: CSR %d sets / %d edges, graph %d / %d",
				c.id, csr.NumSets(), csr.NumEdges(), dg.NumSets(), dg.NumEdges())
		}
		// Forward edges match the reference lists exactly (same order:
		// sorted by flat id).
		ref := referenceDeps(t, dg.Plan)
		for li := range ref {
			for si, refs := range ref[li] {
				id := csr.ID(li, si)
				if gl, gs := csr.Set(id); gl != li || gs != si {
					t.Fatalf("%s: ID/Set round trip broke at L%d/S%d", c.id, li, si)
				}
				if csr.Cycles[id] != dg.Plan.Layers[li].Cycles(si) {
					t.Fatalf("%s: cycles mismatch at L%d/S%d", c.id, li, si)
				}
				lo, hi := csr.PredOff[id], csr.PredOff[id+1]
				if int(hi-lo) != len(refs) {
					t.Fatalf("%s: L%d/S%d has %d CSR preds, %d refs", c.id, li, si, hi-lo, len(refs))
				}
				for k, r := range refs {
					if csr.Pred[lo+int32(k)] != csr.ID(r.Layer, r.Set) {
						t.Fatalf("%s: L%d/S%d pred %d mismatch", c.id, li, si, k)
					}
					if int(csr.PredVol[lo+int32(k)]) != r.Vol {
						t.Fatalf("%s: L%d/S%d pred %d volume mismatch", c.id, li, si, k)
					}
				}
			}
		}
		// The successor view is the exact transpose.
		if err := checkTranspose(csr, csr.Successors()); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
	}
}

// checkTranspose reports whether sv is the exact transpose of c's
// predecessor arrays: every (pred, succ, vol) triple appears once on
// each side, and every successor run is strictly ascending.
func checkTranspose(c *CSR, sv *SuccView) error {
	type edge struct {
		p, s int32
		v    int32
	}
	if len(sv.Off) != c.NumSets()+1 || len(sv.Succ) != c.NumEdges() || len(sv.Vol) != c.NumEdges() {
		return fmt.Errorf("successor view sized %d/%d/%d for %d sets, %d edges",
			len(sv.Off), len(sv.Succ), len(sv.Vol), c.NumSets(), c.NumEdges())
	}
	fwd := make(map[edge]int)
	for id := int32(0); int(id) < c.NumSets(); id++ {
		for e := c.PredOff[id]; e < c.PredOff[id+1]; e++ {
			fwd[edge{c.Pred[e], id, c.PredVol[e]}]++
		}
	}
	for id := int32(0); int(id) < c.NumSets(); id++ {
		prev := int32(-1)
		for e := sv.Off[id]; e < sv.Off[id+1]; e++ {
			if sv.Succ[e] <= prev {
				return fmt.Errorf("successors of %d not strictly ascending", id)
			}
			prev = sv.Succ[e]
			k := edge{id, sv.Succ[e], sv.Vol[e]}
			if fwd[k] == 0 {
				return fmt.Errorf("successor edge %v has no forward twin", k)
			}
			fwd[k]--
		}
	}
	for k, n := range fwd {
		if n != 0 {
			return fmt.Errorf("forward edge %v missing from successor view", k)
		}
	}
	return nil
}

// TestSuccessorsConcurrent: a cached compilation's CSR is shared by
// concurrent sim and stream requests, each of which asks for the
// successor view. Every caller must get the same, fully built, exact
// transpose (run under -race).
func TestSuccessorsConcurrent(t *testing.T) {
	dg := buildGraph(t, models.TinyYOLOv4, 416, 26)
	csr := dg.CSR
	const callers = 16
	views := make([]*SuccView, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := range views {
		go func(i int) {
			defer wg.Done()
			views[i] = csr.Successors()
		}(i)
	}
	wg.Wait()
	for i, sv := range views {
		if sv != views[0] {
			t.Fatalf("caller %d got a different view", i)
		}
	}
	if err := checkTranspose(csr, views[0]); err != nil {
		t.Fatal(err)
	}
}
