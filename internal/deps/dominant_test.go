package deps

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"clsacim/internal/models"
	"clsacim/internal/sets"
)

// checkDominant holds a dominant view to its definition against the
// full CSR of dg: the view shares the set arrays, every kept list is an
// ascending sub-list of the consumer's predecessors, and a predecessor
// p of consumer c is dropped exactly when c has a later predecessor q >
// p in p's layer on p's replica (q ≡ p mod the layer's Group.Dup); the
// last one of each such class is kept, so each dropped edge has a kept
// dominator.
func checkDominant(dg *Graph, dom *CSR) error {
	c := dg.CSR
	if &dom.LayerOff[0] != &c.LayerOff[0] || &dom.SetLayer[0] != &c.SetLayer[0] || &dom.Cycles[0] != &c.Cycles[0] {
		return fmt.Errorf("view does not share the CSR's set arrays")
	}
	if dom.PredVol != nil || len(dom.PredOff) != len(c.PredOff) {
		return fmt.Errorf("view has %d offsets (CSR %d) and volumes %v", len(dom.PredOff), len(c.PredOff), dom.PredVol != nil)
	}
	if dom.NumEdges() > c.NumEdges() {
		return fmt.Errorf("view has %d edges, CSR %d", dom.NumEdges(), c.NumEdges())
	}
	for i := 0; i < c.NumSets(); i++ {
		full := c.Pred[c.PredOff[i]:c.PredOff[i+1]]
		kept := dom.Pred[dom.PredOff[i]:dom.PredOff[i+1]]
		if !slices.IsSorted(kept) {
			return fmt.Errorf("set %d: kept list %v not sorted", i, kept)
		}
		k := 0
		for x, p := range full {
			pl, ps := c.Set(p)
			d := dg.Plan.Layers[pl].Group.Dup
			dominated := false
			for _, q := range full[x+1:] {
				if ql, qs := c.Set(q); ql == pl && Replica(qs, d) == Replica(ps, d) {
					dominated = true
					break
				}
			}
			if k < len(kept) && kept[k] == p {
				if dominated {
					return fmt.Errorf("set %d keeps %d, which a later predecessor on its replica dominates", i, p)
				}
				k++
			} else if !dominated {
				return fmt.Errorf("set %d drops %d with no later predecessor on its replica", i, p)
			}
		}
		if k != len(kept) {
			return fmt.Errorf("set %d: kept list %v is not a sub-list of its predecessors %v", i, kept, full)
		}
	}
	return nil
}

// TestDominantView checks the dominant-predecessor view of every zoo
// model with weight duplication at 26 sets per layer and at fine
// granularity (checkDominant), and that it is built once per Graph.
func TestDominantView(t *testing.T) {
	ids := models.SortedIDs()
	if testing.Short() {
		ids = []models.ID{models.TinyYOLOv4, models.TinyBranchNet}
	}
	for _, id := range ids {
		for _, target := range []int{26, sets.FineGranularity} {
			_, dg := buildDeps(t, id, 0, target, 32)
			dom := dg.Dominant()
			if err := checkDominant(dg, dom); err != nil {
				t.Fatalf("%s sets=%d: %v", id, target, err)
			}
			if dg.Dominant() != dom {
				t.Fatalf("%s sets=%d: second call built another view", id, target)
			}
			if id == models.TinyYOLOv4 && target == sets.FineGranularity && dom.NumEdges() >= dg.NumEdges() {
				t.Errorf("%s fine wdup+32: view keeps all %d edges", id, dg.NumEdges())
			}
		}
	}
}

// TestDominantConcurrent: a cached compilation's Graph is shared by
// concurrent streams and reports, each of which asks for the dominant
// view, its successors and the activity rows. Every caller must get the
// same, fully built view, transpose and rows (run under -race), and the
// rows must add up each replica's sets under the Replica rule.
func TestDominantConcurrent(t *testing.T) {
	_, dg := buildDeps(t, models.TinyYOLOv4, 0, 26, 32)
	const callers = 16
	views := make([]*CSR, callers)
	succs := make([]*SuccView, callers)
	rows := make([][][]int64, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := range views {
		go func(i int) {
			defer wg.Done()
			views[i] = dg.Dominant()
			succs[i] = views[i].Successors()
			_, rows[i] = dg.Activity()
		}(i)
	}
	wg.Wait()
	for i := range views {
		if views[i] != views[0] || succs[i] != succs[0] || &rows[i][0] != &rows[0][0] {
			t.Fatalf("caller %d got a different view", i)
		}
	}
	layer, replica := dg.Activity()
	for li, ls := range dg.Plan.Layers {
		want := make([]int64, ls.Group.Dup)
		var total int64
		for si := 0; si < ls.NumSets(); si++ {
			c := dg.CSR.Cycles[dg.CSR.ID(li, si)]
			want[Replica(si, ls.Group.Dup)] += c
			total += c
		}
		if !slices.Equal(replica[li], want) || layer[li] != total {
			t.Fatalf("layer %d: activity %d %v, want %d %v", li, layer[li], replica[li], total, want)
		}
	}
	if err := checkDominant(dg, views[0]); err != nil {
		t.Fatal(err)
	}
	if err := checkTranspose(views[0], succs[0]); err != nil {
		t.Fatal(err)
	}
}
