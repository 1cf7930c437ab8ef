package schedule

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Unbounded is the Window of policies that never gate layer admission.
const Unbounded = math.MaxInt32

// Policy is a scheduling mode. Stage III dispatch is fixed (Replica),
// so modes differ only in their admission window: a sliding window over
// the plan's topological layer order, where layer l may not start
// before every layer up to l-Window has completed, so at most Window
// layers are ever concurrently active. Window 1 is the paper's
// layer-by-layer baseline (strictly sequential layers), Unbounded is
// full cross-layer inference ("xinf"), and the intermediate xK family
// trades scheduling freedom (and buffer pressure) against pipeline
// depth.
//
// Policies are comparable values. The zero value is LayerByLayer.
type Policy struct {
	// w encodes the mode: 0 = layer-by-layer, -1 = unbounded
	// cross-layer ("xinf"), K > 0 = at most K layers concurrently
	// active ("xK"). Windowed(1) is distinct from LayerByLayer in name
	// only.
	w int
}

// Replica is the Stage III dispatch rule of every policy: set si of a
// layer with d replica PE groups runs on replica si % d, so sets go to
// the replicas round-robin in raster order ("the input vectors are
// evenly distributed among the duplicates", paper §III-C).
func Replica(si, d int) int { return si % d }

// LayerByLayer is the paper's §II-B baseline: layers execute strictly
// sequentially; only the replicas of the current layer overlap.
var LayerByLayer = Policy{}

// CrossLayer is CLSA-CIM cross-layer inference (paper §IV, "xinf"):
// a set starts as soon as its replica and its Stage II dependencies
// allow, with no admission bound.
var CrossLayer = Policy{w: -1}

// Windowed returns the bounded cross-layer policy xK: at most k layers
// concurrently active. k = 1 behaves exactly like LayerByLayer and
// k >= the layer count exactly like CrossLayer; values in between
// interpolate. Non-positive k is clamped to 1.
func Windowed(k int) Policy {
	return Policy{w: max(k, 1)}
}

// Window is the admission bound: the maximum number of layers
// concurrently active (1 = layer-by-layer, Unbounded = xinf).
func (p Policy) Window() int {
	switch {
	case p.w < 0:
		return Unbounded
	case p.w == 0:
		return 1
	default:
		return p.w
	}
}

// Name is the canonical mode name understood by ParseMode: "lbl",
// "x<K>", or "xinf".
func (p Policy) Name() string {
	switch {
	case p.w < 0:
		return "xinf"
	case p.w == 0:
		return "lbl"
	default:
		return "x" + strconv.Itoa(p.w)
	}
}

// String is Name.
func (p Policy) String() string { return p.Name() }

// ErrUnknownMode reports a mode name ParseMode does not recognize.
var ErrUnknownMode = fmt.Errorf("schedule: unknown mode")

// ParseMode resolves a scheduling policy by name: "xinf" (cross-layer
// inference, aliases "crosslayer" and "cross-layer"), "lbl"
// (layer-by-layer, aliases "layer-by-layer" and "layerbylayer"), or
// the bounded-window family "x<K>" for a positive decimal K ("x1",
// "x2", "x4", ...). Matching is case-insensitive.
func ParseMode(name string) (Policy, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	switch s {
	case "xinf", "crosslayer", "cross-layer":
		return CrossLayer, nil
	case "lbl", "layer-by-layer", "layerbylayer":
		return LayerByLayer, nil
	}
	if rest, ok := strings.CutPrefix(s, "x"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k >= 1 {
			return Windowed(k), nil
		}
	}
	return Policy{}, fmt.Errorf("%w %q (want lbl, xinf, or xK)", ErrUnknownMode, name)
}
