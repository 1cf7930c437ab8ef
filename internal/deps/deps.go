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
// accumulated in that scratch and copied out once at their exact length
// — no per-set intermediate slices. The merge is positional (results
// land in per-layer slots concatenated in plan order), so the CSR output
// is byte-identical at any worker count.
package deps

import (
	"fmt"
	"runtime"
	"slices"
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
// flat CSR arrays (see CSR). Use DepsOf for a per-set SetRef view.
type Graph struct {
	Plan *sets.Plan
	// CSR is the compressed-sparse-row dependency graph; the scheduler
	// and simulator hot paths consume it.
	CSR *CSR
}

// Options configures Build.
type Options struct {
	// Workers bounds the number of layers processed concurrently;
	// 0 means GOMAXPROCS. The output is identical for every value.
	Workers int
}

// Build computes Stage II for plan over graph g with default options.
func Build(g *nn.Graph, plan *sets.Plan) (*Graph, error) {
	return BuildOpt(g, plan, Options{})
}

// layerEdges is one layer's slice of the predecessor arrays: flat
// predecessor ids and volumes, each set's run in raster order. The
// per-set run offsets are written straight into the CSR's PredOff,
// relative to the layer's first edge.
type layerEdges struct {
	pred []int32
	vol  []int32
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
// reuse the buffers instead of regrowing them per layer.
type buildScratch struct {
	routes []route
	tabs   []routeTab
	ids    []int32 // per-set edge accumulator (flat ids)
	vols   []int32
	pred   []int32 // per-layer edge accumulator, copied out once
	vol    []int32
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// BuildOpt computes Stage II for plan over graph g. Consumer layers are
// independent given the immutable plan, so they are fanned out over a
// bounded worker pool; per-layer results are merged positionally into
// the CSR, keeping the output deterministic regardless of parallelism.
func BuildOpt(g *nn.Graph, plan *sets.Plan, opt Options) (*Graph, error) {
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

	results := make([]layerEdges, nl)
	errs := make([]error, nl)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, nl), 1)
	var next atomic.Int64
	work := func() {
		sc := scratchPool.Get().(*buildScratch)
		defer scratchPool.Put(sc)
		for {
			li := int(next.Add(1)) - 1
			if li >= nl {
				return
			}
			results[li], errs[li] = buildLayer(plan, li, c, sc)
		}
	}
	if workers == 1 {
		work()
	} else {
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
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.assemble(results)
	return &Graph{Plan: plan, CSR: c}, nil
}

// buildLayer computes the dependency edges of every set of layer li and
// fills the layer's id range of csr's per-set arrays (SetLayer, Cycles,
// and PredOff relative to the layer's first edge); workers own disjoint
// ranges. The layer's receptive-field transform and backward routes are
// compiled once; each route's axis chains are then evaluated once per
// consumer grid row and column (all transforms act on H, W, and C
// independently, and sets are grid cells spanning the full channel
// depth), so the per-set loop is pure table lookup. Edges come out
// sorted by flat predecessor id with duplicates merged at maximum
// volume (a set can be reached over several routes), matching the
// recursive formulation exactly. They accumulate in the worker's
// scratch and are copied out once, at their final length.
func buildLayer(plan *sets.Plan, li int, csr *CSR, sc *buildScratch) (layerEdges, error) {
	ls := &plan.Layers[li]
	node := ls.Group.Node
	ifm, err := compileIFM(node)
	if err != nil {
		return layerEdges{}, fmt.Errorf("deps: %v set 0: %w", node, err)
	}
	sc.routes, err = compileRoutes(node.Inputs[0], plan, sc.routes[:0])
	if err != nil {
		return layerEdges{}, fmt.Errorf("deps: %v: %w", node, err)
	}
	if len(sc.tabs) < len(sc.routes) {
		sc.tabs = append(sc.tabs, make([]routeTab, len(sc.routes)-len(sc.tabs))...)
	}
	ntabs := 0
	for ri := range sc.routes {
		if fillTab(&sc.tabs[ntabs], plan, &ifm, &sc.routes[ri], ls, csr.LayerOff) {
			ntabs++
		}
	}
	tabs := sc.tabs[:ntabs]

	base := csr.LayerOff[li]
	sc.pred, sc.vol = sc.pred[:0], sc.vol[:0]
	si := 0
	for r := 0; r < ls.GH; r++ {
		for c := 0; c < ls.GW; c++ {
			id := base + int32(si)
			csr.SetLayer[id] = int32(li)
			csr.Cycles[id] = ls.Cycles(si)
			csr.PredOff[id] = int32(len(sc.pred))
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
			sc.pred, sc.vol = mergeEdges(sc.ids, sc.vols, sc.pred, sc.vol)
		}
	}
	return layerEdges{pred: slices.Clone(sc.pred), vol: slices.Clone(sc.vol)}, nil
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
