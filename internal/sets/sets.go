// Package sets implements Stage I of CLSA-CIM (paper §IV-1): every base
// layer's OFM is partitioned into disjoint hyperrectangular sets, the
// minimum scheduling units. All elements of a set are computed before any
// element of the next set of the same OFM.
//
// Sets are 2-D tiles spanning the full channel depth (one MVM produces a
// whole (1x1xOC) pixel vector, so channels are never split). Tiles are
// laid out and executed in raster order — the intra-layer data flow of
// §III-B. Tile boundaries are aligned to the pooling strides of the
// downstream non-base path, keeping sets large enough to emit complete
// pooling windows (the paper's 2x2-pooling minimum-set-size example);
// similar-sized tiles keep per-set execution times even. Increasing the
// set count gives finer scheduling granularity and deeper cross-layer
// overlap at the cost of more scheduling state, exactly the trade-off
// the paper describes.
package sets

import (
	"fmt"
	"sort"

	"clsacim/internal/mapping"
	"clsacim/internal/nn"
	"clsacim/internal/region"
)

// DefaultTargetSets is the default Stage I granularity: the scheduler
// aims for this many sets per base layer (clamped by alignment and OFM
// geometry). The paper's evaluation reports the maximum achievable
// utilization / minimum latency, which corresponds to fine granularity;
// use FineGranularity (or a large TargetSets) to reproduce it.
const DefaultTargetSets = 26

// FineGranularity as TargetSets requests the finest alignment-respecting
// partition (alignH x alignW tiles).
const FineGranularity = 1 << 30

// Set is one minimum scheduling unit.
type Set struct {
	// Layer indexes the owning group in Plan.Layers.
	Layer int
	// Index is the intra-layer raster position (Stage III order).
	Index int
	// Box is the tile in the layer's OFM coordinates.
	Box region.Box
	// Cycles is the execution time: one cycle per OFM pixel.
	Cycles int64
}

// LayerSets holds the Stage I result for one mapped base layer. Sets
// form a GH x GW grid in raster order; RowBounds and ColBounds hold the
// grid boundaries (len GH+1 and GW+1) for O(log n) intersection queries.
type LayerSets struct {
	Group  *mapping.Group
	Sets   []Set
	AlignH int
	AlignW int
	GH, GW int
	// RowBounds[i] is the first OFM row of grid row i; RowBounds[GH] is
	// the OFM height. ColBounds likewise for columns.
	RowBounds []int
	ColBounds []int
}

// Intersecting appends to dst the indices of sets whose boxes intersect
// b, using the grid bounds (O(log + hits) instead of scanning all sets).
func (ls *LayerSets) Intersecting(b region.Box, dst []int) []int {
	r0, r1 := boundRange(ls.RowBounds, b.H0, b.H1)
	c0, c1 := boundRange(ls.ColBounds, b.W0, b.W1)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			dst = append(dst, r*ls.GW+c)
		}
	}
	return dst
}

// RowRange returns the grid-row index range [r0, r1) of rows whose OFM
// interval intersects [lo, hi). Every returned row has positive overlap
// when the query interval is non-empty.
func (ls *LayerSets) RowRange(lo, hi int) (int, int) {
	return boundRange(ls.RowBounds, lo, hi)
}

// ColRange is RowRange for grid columns.
func (ls *LayerSets) ColRange(lo, hi int) (int, int) {
	return boundRange(ls.ColBounds, lo, hi)
}

// boundRange returns the index range [i0, i1) of grid cells whose
// interval [bounds[i], bounds[i+1]) intersects [lo, hi).
func boundRange(bounds []int, lo, hi int) (int, int) {
	n := len(bounds) - 1
	if n <= 0 || hi <= bounds[0] || lo >= bounds[n] {
		return 0, 0
	}
	// i0: last cell starting at or before lo.
	i0 := sort.SearchInts(bounds, lo+1) - 1
	if i0 < 0 {
		i0 = 0
	}
	// i1: first cell starting at or beyond hi.
	i1 := sort.SearchInts(bounds, hi)
	if i1 > n {
		i1 = n
	}
	return i0, i1
}

// Plan is the Stage I output for a whole mapped graph.
type Plan struct {
	Layers []LayerSets
	// ByNode maps a base-layer node to its index in Layers.
	ByNode map[*nn.Node]int
	// TargetSets records the requested granularity.
	TargetSets int
}

// Options configures set determination.
type Options struct {
	// TargetSets is the desired number of sets per layer
	// (DefaultTargetSets if 0; FineGranularity for the finest legal
	// partition). Higher values give finer scheduling granularity.
	TargetSets int
}

// LayerTarget returns the set count Stage I aims for on a layer with
// duplication factor dup under the requested granularity target (0
// selects DefaultTargetSets). A duplicated layer's target is rounded up
// to a multiple of dup so the round-robin distribution over its replica
// PE groups stays even; FineGranularity is never rounded. Determine's
// output depends on a layer's duplication only through this value, so
// two duplication vectors with equal per-layer LayerTarget values
// partition — and therefore depend — identically.
func LayerTarget(target, dup int) int {
	if target <= 0 {
		target = DefaultTargetSets
	}
	if dup > 1 && target < FineGranularity {
		target = (target + dup - 1) / dup * dup
	}
	return target
}

// Determine partitions every mapped layer's OFM into sets. The grid is
// cut along OH first (keeping raster-friendly row bands) and along OW
// only when the requested granularity exceeds the row count. Each
// layer's set count target comes from LayerTarget.
func Determine(g *nn.Graph, m *mapping.Mapping, opt Options) (*Plan, error) {
	target := opt.TargetSets
	if target <= 0 {
		target = DefaultTargetSets
	}
	plan := &Plan{
		Layers:     make([]LayerSets, 0, len(m.Groups)),
		ByNode:     make(map[*nn.Node]int, len(m.Groups)),
		TargetSets: target,
	}
	cons := g.Consumers()
	for li, grp := range m.Groups {
		out := grp.Node.OutShape
		alignH, alignW := downstreamAlign(grp.Node, cons)
		alignH = clampAlign(alignH, out.H)
		alignW = clampAlign(alignW, out.W)
		n := LayerTarget(target, grp.Dup)
		unitsH := (out.H + alignH - 1) / alignH
		unitsW := (out.W + alignW - 1) / alignW
		gh := min(n, unitsH)
		gw := 1
		if gh > 0 && gh == unitsH && n > unitsH {
			gw = min((n+gh-1)/gh, unitsW)
		}
		full := region.Full(out.H, out.W, out.C)
		rows := full.SplitH(gh, alignH)
		cols := full.SplitW(gw, alignW)
		ls := LayerSets{Group: grp, AlignH: alignH, AlignW: alignW, GH: len(rows), GW: len(cols)}
		ls.RowBounds = make([]int, 0, len(rows)+1)
		for _, r := range rows {
			ls.RowBounds = append(ls.RowBounds, r.H0)
		}
		ls.RowBounds = append(ls.RowBounds, out.H)
		ls.ColBounds = make([]int, 0, len(cols)+1)
		for _, c := range cols {
			ls.ColBounds = append(ls.ColBounds, c.W0)
		}
		ls.ColBounds = append(ls.ColBounds, out.W)
		ls.Sets = make([]Set, 0, len(rows)*len(cols))
		idx := 0
		for _, r := range rows {
			for _, c := range cols {
				b := region.NewBox(r.H0, r.H1, c.W0, c.W1, 0, out.C)
				ls.Sets = append(ls.Sets, Set{Layer: li, Index: idx, Box: b, Cycles: int64(b.Pixels())})
				idx++
			}
		}
		// The grid construction guarantees pairwise disjointness; volume
		// and containment checks catch boundary bugs in O(n).
		var vol int
		for i := range ls.Sets {
			s := &ls.Sets[i]
			if s.Box.Empty() || !full.ContainsBox(s.Box) {
				return nil, fmt.Errorf("sets: tile %v of %v outside OFM", s.Box, grp.Node)
			}
			vol += s.Box.Volume()
		}
		if vol != full.Volume() {
			return nil, fmt.Errorf("sets: tiles of %v cover %d of %d elements", grp.Node, vol, full.Volume())
		}
		plan.Layers = append(plan.Layers, ls)
		plan.ByNode[grp.Node] = li
	}
	return plan, nil
}

func clampAlign(a, extent int) int {
	if a < 1 {
		return 1
	}
	if a > extent {
		return extent
	}
	return a
}

// downstreamAlign returns the least common multiples of the vertical and
// horizontal pooling strides on the non-base consumer paths of n
// (stopping at base layers). Set boundaries at these multiples emit
// complete pooling windows, satisfying the paper's minimum-set-size
// requirement.
func downstreamAlign(n *nn.Node, cons map[*nn.Node][]*nn.Node) (alignH, alignW int) {
	alignH, alignW = 1, 1
	seen := make(map[*nn.Node]bool)
	var walk func(x *nn.Node)
	walk = func(x *nn.Node) {
		for _, c := range cons[x] {
			if seen[c] || c.IsBase() {
				continue
			}
			seen[c] = true
			switch op := c.Op.(type) {
			case *nn.MaxPool:
				alignH = lcm(alignH, op.SH)
				alignW = lcm(alignW, op.SW)
			case *nn.AvgPool:
				if !op.Global {
					alignH = lcm(alignH, op.SH)
					alignW = lcm(alignW, op.SW)
				}
			}
			walk(c)
		}
	}
	walk(n)
	return alignH, alignW
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TotalCycles returns the serial execution time of one layer's sets
// (its t_i under pure intra-layer scheduling).
func (ls LayerSets) TotalCycles() int64 {
	var t int64
	for _, s := range ls.Sets {
		t += s.Cycles
	}
	return t
}
