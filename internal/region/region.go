// Package region implements three-dimensional half-open boxes
// (hyperrectangles) over tensor coordinates. Boxes are the geometric
// foundation of CLSA-CIM's Stage I (set determination) and Stage II
// (dependency determination): every scheduling set is a box in its
// layer's OFM coordinate space, and dependencies are computed by
// propagating boxes through the non-base-layer paths of the graph.
//
// A Box spans [H0, H1) x [W0, W1) x [C0, C1). The half-open convention
// makes splitting, intersection, and coverage arithmetic exact (no
// off-by-one adjustments), matching the paper's "two coordinates identify
// the set's location and size" representation.
package region

import "fmt"

// Box is a half-open 3-D interval [H0,H1) x [W0,W1) x [C0,C1).
// A Box with any non-positive extent is empty.
type Box struct {
	H0, H1 int
	W0, W1 int
	C0, C1 int
}

// NewBox returns the box [h0,h1) x [w0,w1) x [c0,c1).
func NewBox(h0, h1, w0, w1, c0, c1 int) Box {
	return Box{H0: h0, H1: h1, W0: w0, W1: w1, C0: c0, C1: c1}
}

// Full returns the box covering an entire (h, w, c) volume.
func Full(h, w, c int) Box { return Box{0, h, 0, w, 0, c} }

// Empty reports whether b contains no points.
func (b Box) Empty() bool { return b.H1 <= b.H0 || b.W1 <= b.W0 || b.C1 <= b.C0 }

// DH returns the height extent (0 if empty in H).
func (b Box) DH() int { return max(0, b.H1-b.H0) }

// DW returns the width extent.
func (b Box) DW() int { return max(0, b.W1-b.W0) }

// DC returns the channel extent.
func (b Box) DC() int { return max(0, b.C1-b.C0) }

// Volume returns the number of points in b (0 if empty).
func (b Box) Volume() int {
	if b.Empty() {
		return 0
	}
	return b.DH() * b.DW() * b.DC()
}

// Pixels returns the number of spatial (H, W) positions in b.
func (b Box) Pixels() int {
	if b.Empty() {
		return 0
	}
	return b.DH() * b.DW()
}

// String renders b as [h0:h1, w0:w1, c0:c1].
func (b Box) String() string {
	return fmt.Sprintf("[%d:%d, %d:%d, %d:%d]", b.H0, b.H1, b.W0, b.W1, b.C0, b.C1)
}

// Contains reports whether the point (h, w, c) lies inside b.
func (b Box) Contains(h, w, c int) bool {
	return h >= b.H0 && h < b.H1 && w >= b.W0 && w < b.W1 && c >= b.C0 && c < b.C1
}

// ContainsBox reports whether o is entirely inside b. An empty o is
// contained in every box.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	return o.H0 >= b.H0 && o.H1 <= b.H1 &&
		o.W0 >= b.W0 && o.W1 <= b.W1 &&
		o.C0 >= b.C0 && o.C1 <= b.C1
}

// Intersect returns the intersection of b and o (possibly empty).
func (b Box) Intersect(o Box) Box {
	return Box{
		H0: max(b.H0, o.H0), H1: min(b.H1, o.H1),
		W0: max(b.W0, o.W0), W1: min(b.W1, o.W1),
		C0: max(b.C0, o.C0), C1: min(b.C1, o.C1),
	}
}

// Intersects reports whether b and o share at least one point.
func (b Box) Intersects(o Box) bool { return !b.Intersect(o).Empty() }

// Union returns the bounding box of b and o. If either is empty the other
// is returned unchanged.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{
		H0: min(b.H0, o.H0), H1: max(b.H1, o.H1),
		W0: min(b.W0, o.W0), W1: max(b.W1, o.W1),
		C0: min(b.C0, o.C0), C1: max(b.C1, o.C1),
	}
}

// Translate returns b shifted by (dh, dw, dc).
func (b Box) Translate(dh, dw, dc int) Box {
	return Box{b.H0 + dh, b.H1 + dh, b.W0 + dw, b.W1 + dw, b.C0 + dc, b.C1 + dc}
}

// ClampTo returns b intersected with the full volume (h, w, c).
func (b Box) ClampTo(h, w, c int) Box { return b.Intersect(Full(h, w, c)) }

// Canon returns b unchanged if non-empty, else the canonical empty box.
// Canonicalizing empty boxes makes equality checks meaningful.
func (b Box) Canon() Box {
	if b.Empty() {
		return Box{}
	}
	return b
}

// Eq reports geometric equality: equal coordinates, or both empty.
func (b Box) Eq(o Box) bool {
	if b.Empty() && o.Empty() {
		return true
	}
	return b == o
}

// SplitH splits b into n contiguous slabs along H whose heights differ by
// at most one, each aligned so that every boundary except the last is a
// multiple of align (relative to b.H0). n is clamped to [1, ceil(DH/align)].
// The returned slabs partition b exactly.
func (b Box) SplitH(n, align int) []Box {
	return splitAxis(b, n, align, axisH)
}

// SplitW splits b along W; see SplitH.
func (b Box) SplitW(n, align int) []Box {
	return splitAxis(b, n, align, axisW)
}

type axis int

const (
	axisH axis = iota
	axisW
)

func (b Box) axisRange(a axis) (lo, hi int) {
	if a == axisH {
		return b.H0, b.H1
	}
	return b.W0, b.W1
}

func (b Box) withAxisRange(a axis, lo, hi int) Box {
	if a == axisH {
		b.H0, b.H1 = lo, hi
		return b
	}
	b.W0, b.W1 = lo, hi
	return b
}

// splitAxis cuts b into at most n pieces along the given axis at the
// boundaries Cuts places.
func splitAxis(b Box, n, align int, a axis) []Box {
	if b.Empty() {
		return nil
	}
	lo, hi := b.axisRange(a)
	cuts := Cuts(lo, hi, n, align)
	out := make([]Box, len(cuts)-1)
	for i := range out {
		out[i] = b.withAxisRange(a, cuts[i], cuts[i+1])
	}
	return out
}

// Cuts returns the boundaries of at most n contiguous pieces of the
// interval [lo, hi) whose lengths differ by at most one align-sized
// block. Every boundary except the last is a multiple of align
// (relative to lo), so downstream window operations such as
// (2,2)-stride pooling see complete windows in every piece except
// possibly the last. n is clamped to [1, ceil((hi-lo)/align)]. The
// result starts at lo, strictly increases and ends at hi; it is nil for
// an empty interval.
func Cuts(lo, hi, n, align int) []int {
	if hi <= lo {
		return nil
	}
	if align < 1 {
		align = 1
	}
	units := (hi - lo + align - 1) / align // number of align-sized blocks
	if n < 1 {
		n = 1
	}
	if n > units {
		n = units
	}
	out := make([]int, 1, n+1)
	out[0] = lo
	for i := 1; i <= n; i++ {
		// Distribute blocks evenly: piece i ends after floor(i*units/n) blocks.
		end := lo + (units*i/n)*align
		if end > hi || i == n {
			end = hi
		}
		if end > out[len(out)-1] {
			out = append(out, end)
		}
	}
	return out
}

// Grid partitions b into a gh x gw grid of boxes (channels untouched),
// with H boundaries aligned to alignH and W boundaries to alignW.
// The result covers b exactly and the boxes are pairwise disjoint.
func (b Box) Grid(gh, gw, alignH, alignW int) []Box {
	rows := b.SplitH(gh, alignH)
	var out []Box
	for _, r := range rows {
		out = append(out, r.SplitW(gw, alignW)...)
	}
	return out
}

// CoversExactly reports whether parts tile whole exactly: pairwise
// disjoint, all inside whole, and total volume equal to whole's.
func CoversExactly(whole Box, parts []Box) bool {
	total := 0
	for i, p := range parts {
		if p.Empty() || !whole.ContainsBox(p) {
			return false
		}
		total += p.Volume()
		for j := i + 1; j < len(parts); j++ {
			if p.Intersects(parts[j]) {
				return false
			}
		}
	}
	return total == whole.Volume()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
