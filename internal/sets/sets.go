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

// LayerSets holds the Stage I result for one mapped base layer. Its
// sets form a GH x GW grid over the OFM, numbered in raster order: set
// si is grid cell (si / GW, si % GW) and spans the full channel depth
// C, so two boundary arrays identify every set (paper §IV-1: "two
// coordinates identify the set's location and size"). RowBounds and
// ColBounds hold the grid boundaries (len GH+1 and GW+1) and answer
// intersection queries in O(log n).
type LayerSets struct {
	Group  *mapping.Group
	AlignH int
	AlignW int
	GH, GW int
	// C is the channel depth every set spans (the OFM channel count).
	C int
	// RowBounds[i] is the first OFM row of grid row i; RowBounds[GH] is
	// the OFM height. ColBounds likewise for columns.
	RowBounds []int
	ColBounds []int
}

// NumSets returns the layer's set count.
func (ls *LayerSets) NumSets() int { return ls.GH * ls.GW }

// Box returns the OFM tile of set si.
func (ls *LayerSets) Box(si int) region.Box {
	r, c := si/ls.GW, si%ls.GW
	return region.NewBox(ls.RowBounds[r], ls.RowBounds[r+1], ls.ColBounds[c], ls.ColBounds[c+1], 0, ls.C)
}

// Cycles returns the execution time of set si: one cycle per OFM pixel.
func (ls *LayerSets) Cycles(si int) int64 {
	r, c := si/ls.GW, si%ls.GW
	return int64(ls.RowBounds[r+1]-ls.RowBounds[r]) * int64(ls.ColBounds[c+1]-ls.ColBounds[c])
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
		ls := LayerSets{
			Group: grp, AlignH: alignH, AlignW: alignW, C: out.C,
			RowBounds: region.Cuts(0, out.H, gh, alignH),
			ColBounds: region.Cuts(0, out.W, gw, alignW),
		}
		ls.GH, ls.GW = len(ls.RowBounds)-1, len(ls.ColBounds)-1
		if err := ls.checkGrid(out.H, out.W); err != nil {
			return nil, fmt.Errorf("sets: %v: %w", grp.Node, err)
		}
		plan.Layers = append(plan.Layers, ls)
		plan.ByNode[grp.Node] = li
	}
	return plan, nil
}

// checkGrid verifies that the layer's grid tiles its h x w x C OFM
// exactly. On a grid, boundary arrays that start at 0, strictly
// increase and end at the OFM extent, with matching GH/GW and C > 0,
// prove every set non-empty, the sets pairwise disjoint and their union
// the whole OFM, in O(GH+GW).
func (ls *LayerSets) checkGrid(h, w int) error {
	if ls.C <= 0 {
		return fmt.Errorf("channel depth %d", ls.C)
	}
	if err := checkBounds("row", ls.RowBounds, ls.GH, h); err != nil {
		return err
	}
	return checkBounds("column", ls.ColBounds, ls.GW, w)
}

// checkBounds verifies one axis of a set grid: n cells whose boundaries
// start at 0, strictly increase and end at extent.
func checkBounds(axis string, b []int, n, extent int) error {
	if n < 1 || len(b) != n+1 {
		return fmt.Errorf("%d %s bounds for %d grid %ss", len(b), axis, n, axis)
	}
	if b[0] != 0 || b[n] != extent {
		return fmt.Errorf("%s bounds span [%d, %d), OFM extent is %d", axis, b[0], b[n], extent)
	}
	for i := 1; i <= n; i++ {
		if b[i] <= b[i-1] {
			return fmt.Errorf("%s bound %d at %d does not follow %d", axis, i, b[i], b[i-1])
		}
	}
	return nil
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
// (its t_i under pure intra-layer scheduling): one cycle per OFM pixel.
func (ls *LayerSets) TotalCycles() int64 {
	return int64(ls.RowBounds[ls.GH]-ls.RowBounds[0]) * int64(ls.ColBounds[ls.GW]-ls.ColBounds[0])
}
