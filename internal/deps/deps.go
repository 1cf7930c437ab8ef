// Package deps implements Stage II of CLSA-CIM (paper §IV-2): computing,
// for every OFM set of every base layer, which OFM sets of its
// predecessor base layers must be complete before the set can execute.
//
// The paper describes forward propagation of each producer set's
// coordinates along the non-base path to the consumer's IFM. This
// package implements the equivalent backward formulation, which yields
// exact pairwise dependencies in one pass: each consumer set's required
// IFM region (its receptive field) is pulled backward through the
// non-base operators to every reachable predecessor base layer's OFM
// coordinate space; the set then depends on exactly the predecessor sets
// whose boxes intersect the pulled-back region. Backward window
// arithmetic is exact for every operator here, so the resulting
// dependency relation equals the paper's P/Q mapping.
//
// Stage II dominates compilation cost, so Build is engineered as the
// fast path: the backward operator chains are compiled once per
// consumer layer into flattened route transforms (xform.go), layers are
// processed by a bounded worker pool with pooled per-worker scratch
// (they only read the immutable plan), and each layer's edges are
// written straight into the final CSR arrays, in a window sized by an
// upper bound taken in a first pass — no per-set or per-layer
// intermediate slices. The merge is positional (windows lie in plan
// order), so the CSR output is byte-identical at any worker count.
package deps

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"clsacim/internal/nn"
	"clsacim/internal/sets"
)

// SetRef identifies a set and carries the data volume it contributes.
type SetRef struct {
	Layer, Set int
	// Vol is the number of elements of the predecessor set that the
	// depending set actually reads (used by the NoC/GPEU cost models).
	Vol int
}

// Graph is the set-level dependency DAG over a Stage I plan, stored as
// flat CSR arrays (see CSR). Use DepsOf for a per-set SetRef view. A
// Graph is one compilation's: its plan fixes the duplication that the
// dominant-predecessor view (Dominant) and the busy cycles (Activity)
// are computed for.
type Graph struct {
	Plan *sets.Plan
	// CSR is the compressed-sparse-row dependency graph; the scheduler
	// and simulator hot paths consume it.
	CSR *CSR

	domOnce sync.Once
	dom     *CSR

	actOnce    sync.Once
	layerAct   []int64
	replicaAct [][]int64
}

// routeTab is one route evaluated against one consumer layer's set
// grid: the route's axis chains applied to every grid row and column.
// Consumer sets are grid cells, so set (r, c) of the layer reads, via
// this route, exactly the predecessor sets {rows[r]} x {cols[c]}, with
// per-edge volume rowLen * colLen * chan (the per-axis overlap lengths
// with the predecessor's grid).
type routeTab struct {
	base int32 // flat id of the target layer's first set
	pGW  int32 // target layer's grid width
	ch   int32 // channel overlap (constant across the layer's sets)
	// Row r of the consumer grid reaches target grid rows
	// rowPred[rowOff[r]:rowOff[r+1]] with overlap heights rowLen[...];
	// likewise for columns. A dead row/column (its interval went empty
	// mid-chain) has an empty run.
	rowOff, rowPred, rowLen []int32
	colOff, colPred, colLen []int32
}

// buildScratch is the reusable state of one worker. Workers take it
// from scratchPool, so repeated Builds (a sweep compiles many graphs)
// reuse the buffers instead of regrowing them per layer. It holds
// per-layer and per-set state only: no buffer the size of a graph's
// edges outlives a Build in the pool.
type buildScratch struct {
	tabs []routeTab
	ids  []int32 // per-set edge accumulator (flat ids)
	vols []int32
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// Build computes Stage II for plan over graph g. Consumer layers are
// independent given the immutable plan, so they are fanned out over
// GOMAXPROCS workers, twice. The first pass bounds each layer's edge
// count by its raw route hits, before merging (boundLayer); the second
// writes each layer's merged edges straight into its window of the
// final Pred/PredVol arrays (buildLayer), and assemble closes the gaps
// in place. The merge is positional, so the CSR output is identical
// regardless of parallelism, and no edge is copied through a
// per-layer buffer.
func Build(g *nn.Graph, plan *sets.Plan) (*Graph, error) {
	nl := len(plan.Layers)
	layerOff := make([]int32, nl+1)
	total := 0
	for li := range plan.Layers {
		layerOff[li] = int32(total)
		total += plan.Layers[li].NumSets()
	}
	layerOff[nl] = int32(total)
	c := &CSR{
		LayerOff: layerOff,
		SetLayer: make([]int32, total),
		Cycles:   make([]int64, total),
		PredOff:  make([]int32, total+1),
	}

	// edges[li] is first layer li's bound, then its merged edge count;
	// window[li] is the prefix sum of the bounds.
	routes := make([][]route, nl)
	edges := make([]int, nl)
	errs := make([]error, nl)
	forLayers(nl, func(li int, sc *buildScratch) {
		routes[li], edges[li], errs[li] = boundLayer(plan, li, layerOff, sc)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	window := make([]int, nl+1)
	for li, n := range edges {
		window[li+1] = window[li] + n
	}
	c.Pred = make([]int32, window[nl])
	c.PredVol = make([]int32, window[nl])
	forLayers(nl, func(li int, sc *buildScratch) {
		lo, hi := window[li], window[li+1]
		edges[li], errs[li] = buildLayer(plan, li, routes[li], c, sc, c.Pred[lo:lo:hi], c.PredVol[lo:lo:hi])
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	c.assemble(window, edges)
	return &Graph{Plan: plan, CSR: c}, nil
}

// firstErr returns the error of the first failed layer, in plan order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forLayers runs fn on every layer index of [0, nl) over at most
// GOMAXPROCS goroutines, each with its own pooled scratch.
func forLayers(nl int, fn func(li int, sc *buildScratch)) {
	workers := max(min(runtime.GOMAXPROCS(0), nl), 1)
	var next atomic.Int64
	work := func() {
		sc := scratchPool.Get().(*buildScratch)
		defer scratchPool.Put(sc)
		for {
			li := int(next.Add(1)) - 1
			if li >= nl {
				return
			}
			fn(li, sc)
		}
	}
	if workers == 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// routeTabs evaluates each of layer li's backward routes (compileRoutes)
// once per consumer grid row and column into sc's route tables (all
// transforms act on H, W, and C independently, and sets are grid cells
// spanning the full channel depth). It returns the tables of the routes
// that can contribute an edge.
func routeTabs(plan *sets.Plan, li int, routes []route, layerOff []int32, sc *buildScratch) ([]routeTab, error) {
	ls := &plan.Layers[li]
	ifm, err := compileIFM(ls.Group.Node)
	if err != nil {
		return nil, fmt.Errorf("deps: %v set 0: %w", ls.Group.Node, err)
	}
	if len(sc.tabs) < len(routes) {
		sc.tabs = append(sc.tabs, make([]routeTab, len(routes)-len(sc.tabs))...)
	}
	ntabs := 0
	for ri := range routes {
		if fillTab(&sc.tabs[ntabs], plan, &ifm, &routes[ri], ls, layerOff) {
			ntabs++
		}
	}
	return sc.tabs[:ntabs], nil
}

// boundLayer compiles layer li's backward routes and returns them with
// an upper bound on the layer's edge count: its route hits before
// duplicates are merged. Set (r, c) reaches the predecessor sets
// {rows[r]} x {cols[c]} of each route table, so the layer's hits are,
// per table, the product of its row and column hit counts. The bound is
// exact unless two routes reach one predecessor set.
func boundLayer(plan *sets.Plan, li int, layerOff []int32, sc *buildScratch) ([]route, int, error) {
	node := plan.Layers[li].Group.Node
	routes, err := compileRoutes(node.Inputs[0], plan, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("deps: %v: %w", node, err)
	}
	tabs, err := routeTabs(plan, li, routes, layerOff, sc)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for ti := range tabs {
		n += len(tabs[ti].rowPred) * len(tabs[ti].colPred)
	}
	return routes, n, nil
}

// buildLayer computes the dependency edges of every set of layer li
// over its routes, appends them to pred and vol (the layer's window of the CSR's edge
// arrays, with capacity boundLayer's bound), and returns their count.
// It fills the layer's id range of csr's per-set arrays (SetLayer,
// Cycles, and PredOff relative to the layer's first edge); workers own
// disjoint ranges. The per-set loop is pure lookup in the route tables
// (routeTabs). Edges come out sorted by flat predecessor id with
// duplicates merged at maximum volume (a set can be reached over
// several routes), matching the recursive formulation exactly.
func buildLayer(plan *sets.Plan, li int, routes []route, csr *CSR, sc *buildScratch, pred, vol []int32) (int, error) {
	tabs, err := routeTabs(plan, li, routes, csr.LayerOff, sc)
	if err != nil {
		return 0, err
	}
	ls := &plan.Layers[li]
	base := csr.LayerOff[li]
	bound := cap(pred)
	si := 0
	for r := 0; r < ls.GH; r++ {
		for c := 0; c < ls.GW; c++ {
			id := base + int32(si)
			csr.SetLayer[id] = int32(li)
			csr.Cycles[id] = ls.Cycles(si)
			csr.PredOff[id] = int32(len(pred))
			si++
			sc.ids, sc.vols = sc.ids[:0], sc.vols[:0]
			for ti := range tabs {
				tab := &tabs[ti]
				ch := int(tab.ch)
				clo, chi := tab.colOff[c], tab.colOff[c+1]
				for x := tab.rowOff[r]; x < tab.rowOff[r+1]; x++ {
					rowBase := tab.base + tab.rowPred[x]*tab.pGW
					oh := int(tab.rowLen[x])
					for y := clo; y < chi; y++ {
						sc.ids = append(sc.ids, rowBase+tab.colPred[y])
						sc.vols = append(sc.vols, int32(oh*int(tab.colLen[y])*ch))
					}
				}
			}
			if len(pred)+len(sc.ids) > bound {
				return 0, fmt.Errorf("deps: %v: edges exceed their bound %d", ls.Group.Node, bound)
			}
			pred, vol = mergeEdges(sc.ids, sc.vols, pred, vol)
		}
	}
	return len(pred), nil
}

// fillTab evaluates one route against the consumer layer's grid,
// reusing the tab's slices. It reports false when the route cannot
// contribute any edge (its channel chain went empty).
func fillTab(tab *routeTab, plan *sets.Plan, ifm *ifmXform, rt *route, ls *sets.LayerSets, layerOff []int32) bool {
	pls := &plan.Layers[rt.target]
	tab.base = layerOff[rt.target]
	tab.pGW = int32(pls.GW)

	// Channel chain: constant for the whole layer (sets span the full
	// channel depth).
	outC := ls.Group.Node.OutShape.C
	lo, hi := ifm.cmap(0, outC)
	for si := range rt.steps {
		if hi <= lo {
			return false
		}
		lo, hi = rt.steps[si].cmap(lo, hi)
	}
	predC := pls.Group.Node.OutShape.C
	lo, hi = clampIv(lo, hi, predC)
	if hi <= lo {
		return false
	}
	tab.ch = int32(hi - lo)

	// Row chains: consumer grid row r spans [RowBounds[r], RowBounds[r+1]).
	tab.rowOff = append(tab.rowOff[:0], 0)
	tab.rowPred, tab.rowLen = tab.rowPred[:0], tab.rowLen[:0]
	for r := 0; r < ls.GH; r++ {
		lo, hi := ifm.hmap(ls.RowBounds[r], ls.RowBounds[r+1])
		for si := 0; si < len(rt.steps) && hi > lo; si++ {
			lo, hi = rt.steps[si].hmap(lo, hi)
		}
		if hi > lo {
			p0, p1 := pls.RowRange(lo, hi)
			for p := p0; p < p1; p++ {
				tab.rowPred = append(tab.rowPred, int32(p))
				tab.rowLen = append(tab.rowLen,
					int32(min(hi, pls.RowBounds[p+1])-max(lo, pls.RowBounds[p])))
			}
		}
		tab.rowOff = append(tab.rowOff, int32(len(tab.rowPred)))
	}

	// Column chains.
	tab.colOff = append(tab.colOff[:0], 0)
	tab.colPred, tab.colLen = tab.colPred[:0], tab.colLen[:0]
	for c := 0; c < ls.GW; c++ {
		lo, hi := ifm.wmap(ls.ColBounds[c], ls.ColBounds[c+1])
		for si := 0; si < len(rt.steps) && hi > lo; si++ {
			lo, hi = rt.steps[si].wmap(lo, hi)
		}
		if hi > lo {
			p0, p1 := pls.ColRange(lo, hi)
			for p := p0; p < p1; p++ {
				tab.colPred = append(tab.colPred, int32(p))
				tab.colLen = append(tab.colLen,
					int32(min(hi, pls.ColBounds[p+1])-max(lo, pls.ColBounds[p])))
			}
		}
		tab.colOff = append(tab.colOff, int32(len(tab.colPred)))
	}
	return true
}

// mergeEdges appends the (ids, vols) edge stream to (pred, vol), sorted
// by id with duplicate ids merged at maximum volume. Flat ids are
// layer-major, so this order equals the (Layer, Set) order of the
// recursive formulation.
func mergeEdges(ids, vols []int32, pred, vol []int32) ([]int32, []int32) {
	switch len(ids) {
	case 0:
		return pred, vol
	case 1:
		return append(pred, ids[0]), append(vol, vols[0])
	}
	// The accumulator is mostly sorted already (routes intersect sorted
	// set grids); insertion sort keeps the common small lists cheap.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
			vols[j], vols[j-1] = vols[j-1], vols[j]
		}
	}
	pred = append(pred, ids[0])
	vol = append(vol, vols[0])
	for i := 1; i < len(ids); i++ {
		if ids[i] == pred[len(pred)-1] {
			if vols[i] > vol[len(vol)-1] {
				vol[len(vol)-1] = vols[i]
			}
			continue
		}
		pred = append(pred, ids[i])
		vol = append(vol, vols[i])
	}
	return pred, vol
}

// DepsOf materializes the predecessor list of set si of layer li as
// SetRefs, sorted by (Layer, Set). It allocates per call; it exists for
// tests and tools — hot paths consume the CSR arrays directly.
func (dg *Graph) DepsOf(li, si int) []SetRef {
	c := dg.CSR
	id := c.ID(li, si)
	lo, hi := c.PredOff[id], c.PredOff[id+1]
	if lo == hi {
		return nil
	}
	refs := make([]SetRef, 0, hi-lo)
	for e := lo; e < hi; e++ {
		pl, ps := c.Set(c.Pred[e])
		refs = append(refs, SetRef{Layer: pl, Set: ps, Vol: int(c.PredVol[e])})
	}
	return refs
}

// NumSets returns the total number of sets in the dependency graph.
func (dg *Graph) NumSets() int { return dg.CSR.NumSets() }

// NumEdges returns the total number of dependency edges.
func (dg *Graph) NumEdges() int { return dg.CSR.NumEdges() }
