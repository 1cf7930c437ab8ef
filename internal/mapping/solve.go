package mapping

import (
	"fmt"
	"math"
)

// Solution is a duplication vector d for Optimization Problem 1
// (paper §III-C): minimize sum(t_i/d_i) subject to sum(c_i*d_i) <= F,
// d_i >= 1 integer.
type Solution struct {
	// D holds the duplication factor of each plan layer.
	D []int
	// PEsNeeded is sum(c_i * d_i).
	PEsNeeded int
	// Objective is sum(t_i / d_i), the idealized total layer latency.
	Objective float64
}

// Solver selects the algorithm used for Optimization Problem 1.
type Solver int

// Available solvers. SolverDP solves Optimization Problem 1 exactly (the
// default used by the benchmarks); SolverGreedy is the fast
// marginal-gain heuristic; SolverBrute exhaustively enumerates (tests
// only); SolverNone disables duplication (d_i = 1); SolverMinMax is an
// extension beyond the paper that minimizes the pipeline bottleneck
// max(t_i/d_i) instead of the sum — a better objective when the mapping
// is combined with cross-layer scheduling, where the slowest layer
// paces the whole pipeline. SolverUniform spreads the extra-PE budget as
// evenly as duplication feasibility allows — the objective-blind
// baseline the ablations compare the optimizing solvers against.
//
// The schedule-aware "search" solver is not a Solver value: it needs a
// ScoreFunc and registers through the scored registry (see SolveSearch
// and RegisterScored).
const (
	SolverNone Solver = iota
	SolverGreedy
	SolverDP
	SolverBrute
	SolverMinMax
	SolverUniform
)

// String names the solver.
func (s Solver) String() string {
	return [...]string{"none", "greedy", "dp", "brute", "minmax", "uniform"}[s]
}

// MaxDup bounds the useful duplication of a layer: work is split along
// OH (then OW), so more duplicates than output rows cannot be assigned
// disjoint slabs. Dense layers (1x1 OFM) are never duplicated.
func MaxDup(info LayerInfo) int {
	return info.Node.OutShape.H
}

// Solve computes a duplication vector for F total PEs. It requires
// plan.MinPEs <= F (the paper's standing assumption that the NN fits).
func Solve(plan *Plan, F int, solver Solver) (Solution, error) {
	n := len(plan.Layers)
	if plan.MinPEs > F {
		return Solution{}, fmt.Errorf("mapping: need %d PEs, architecture has %d", plan.MinPEs, F)
	}
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	switch solver {
	case SolverNone:
		return finish(plan, ones), nil
	case SolverGreedy:
		return solveGreedy(plan, F), nil
	case SolverDP:
		return solveDP(plan, F), nil
	case SolverBrute:
		return solveBrute(plan, F)
	case SolverMinMax:
		return solveMinMax(plan, F), nil
	case SolverUniform:
		return solveUniform(plan, F), nil
	default:
		return Solution{}, fmt.Errorf("mapping: unknown solver %d", solver)
	}
}

func finish(plan *Plan, d []int) Solution {
	s := Solution{D: d}
	for i, info := range plan.Layers {
		s.PEsNeeded += info.Cost * d[i]
		s.Objective += float64(info.Latency) / float64(d[i])
	}
	return s
}

// solveGreedy repeatedly grants one extra duplicate to the layer with the
// best latency reduction per PE spent.
func solveGreedy(plan *Plan, F int) Solution {
	n := len(plan.Layers)
	d := make([]int, n)
	for i := range d {
		d[i] = 1
	}
	budget := F - plan.MinPEs
	for {
		best := -1
		var bestEff float64
		for i, info := range plan.Layers {
			if d[i] >= MaxDup(info) || info.Cost > budget {
				continue
			}
			gain := float64(info.Latency)/float64(d[i]) - float64(info.Latency)/float64(d[i]+1)
			if gain <= 0 {
				continue
			}
			eff := gain / float64(info.Cost)
			if eff > bestEff {
				bestEff = eff
				best = i
			}
		}
		if best < 0 {
			break
		}
		d[best]++
		budget -= plan.Layers[best].Cost
	}
	return finish(plan, d)
}

// solveDP solves Optimization Problem 1 exactly by dynamic programming
// over the extra-PE budget B = F - MinPEs: dp[i][b] is the minimum
// objective of the first i layers using b extra PEs. B is clamped to
// dupCap, the PEs that every layer at MaxDup would use: no further PE
// can hold a replica, every DP state beyond the cap repeats the state at
// it, so the clamp returns the same solution and keeps the O(n·B)
// choice table bounded by the plan instead of by F.
func solveDP(plan *Plan, F int) Solution {
	return solveDPBudget(plan, min(F-plan.MinPEs, dupCap(plan)))
}

// solveDPBudget is solveDP over an explicit extra-PE budget.
func solveDPBudget(plan *Plan, budget int) Solution {
	n := len(plan.Layers)
	const inf = math.MaxFloat64
	dp := make([]float64, budget+1)
	choice := make([][]int, n) // choice[i][b] = extra duplicates of layer i
	for i := range dp {
		dp[i] = 0
	}
	for i, info := range plan.Layers {
		choice[i] = make([]int, budget+1)
		next := make([]float64, budget+1)
		for b := 0; b <= budget; b++ {
			next[b] = inf
			kMax := MaxDup(info) - 1
			if info.Cost > 0 && b/info.Cost < kMax {
				kMax = b / info.Cost
			}
			for k := 0; k <= kMax; k++ {
				prev := dp[b-k*info.Cost]
				if prev == inf {
					continue
				}
				obj := prev + float64(info.Latency)/float64(1+k)
				if obj < next[b] {
					next[b] = obj
					choice[i][b] = k
				}
			}
		}
		dp = next
	}
	// The objective is non-increasing in budget, so the full budget is
	// always an optimal state.
	bestB := budget
	for b := 0; b <= budget; b++ {
		if dp[b] < dp[bestB] {
			bestB = b
		}
	}
	d := make([]int, n)
	b := bestB
	for i := n - 1; i >= 0; i-- {
		k := choice[i][b]
		d[i] = 1 + k
		b -= k * plan.Layers[i].Cost
	}
	return finish(plan, d)
}

// dupCap returns Σ (MaxDup_i − 1)·c_i, the extra PEs that duplicating
// every layer to its MaxDup takes.
func dupCap(plan *Plan) int {
	total := 0
	for _, info := range plan.Layers {
		total += max(MaxDup(info)-1, 0) * info.Cost
	}
	return total
}

// solveMinMax greedily duplicates the current bottleneck layer — the one
// with the largest per-replica latency t_i/d_i — until the budget can no
// longer reduce the maximum. Remaining budget is spent with the
// marginal-gain heuristic on the sum objective. Under cross-layer
// scheduling the bottleneck layer paces the whole pipeline, so this
// yields lower makespans than the paper's sum objective (ablation).
func solveMinMax(plan *Plan, F int) Solution {
	n := len(plan.Layers)
	d := make([]int, n)
	for i := range d {
		d[i] = 1
	}
	budget := F - plan.MinPEs
	for {
		// Find the most expensive-per-replica layer that can still be
		// improved within budget.
		best := -1
		var bestLat float64
		for i, info := range plan.Layers {
			lat := float64(info.Latency) / float64(d[i])
			if lat <= bestLat {
				continue
			}
			if d[i] < MaxDup(info) && info.Cost <= budget {
				bestLat = lat
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Only duplicate if this layer actually is the global bottleneck
		// or duplicating reduces the maximum; otherwise fall through to
		// the sum heuristic with what remains.
		globalMax := 0.0
		for i, info := range plan.Layers {
			if lat := float64(info.Latency) / float64(d[i]); lat > globalMax {
				globalMax = lat
			}
		}
		if float64(plan.Layers[best].Latency)/float64(d[best]) < globalMax {
			break
		}
		d[best]++
		budget -= plan.Layers[best].Cost
	}
	// Spend any remainder on the sum objective.
	for {
		best := -1
		var bestEff float64
		for i, info := range plan.Layers {
			if d[i] >= MaxDup(info) || info.Cost > budget {
				continue
			}
			gain := float64(info.Latency)/float64(d[i]) - float64(info.Latency)/float64(d[i]+1)
			if gain <= 0 {
				continue
			}
			if eff := gain / float64(info.Cost); eff > bestEff {
				bestEff = eff
				best = i
			}
		}
		if best < 0 {
			break
		}
		d[best]++
		budget -= plan.Layers[best].Cost
	}
	return finish(plan, d)
}

// solveUniform spreads the extra-PE budget evenly: it repeatedly grants
// one duplicate to the layer with the lowest current duplication factor
// (lowest index on ties) that still fits the budget and its MaxDup.
// Deliberately blind to layer latencies — the ablation baseline that
// isolates how much the optimizing solvers gain over "just spread it".
func solveUniform(plan *Plan, F int) Solution {
	n := len(plan.Layers)
	d := make([]int, n)
	for i := range d {
		d[i] = 1
	}
	budget := F - plan.MinPEs
	for {
		best := -1
		for i, info := range plan.Layers {
			if d[i] >= MaxDup(info) || info.Cost > budget {
				continue
			}
			if best < 0 || d[i] < d[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		d[best]++
		budget -= plan.Layers[best].Cost
	}
	return finish(plan, d)
}

// solveBrute exhaustively enumerates duplication vectors. Exponential;
// for solver cross-validation on small instances only.
func solveBrute(plan *Plan, F int) (Solution, error) {
	n := len(plan.Layers)
	if n > 8 {
		return Solution{}, fmt.Errorf("mapping: brute solver limited to 8 layers, got %d", n)
	}
	d := make([]int, n)
	best := make([]int, n)
	bestObj := math.MaxFloat64
	var rec func(i, used int)
	rec = func(i, used int) {
		if used > F {
			return
		}
		if i == n {
			obj := 0.0
			for j, info := range plan.Layers {
				obj += float64(info.Latency) / float64(d[j])
			}
			if obj < bestObj {
				bestObj = obj
				copy(best, d)
			}
			return
		}
		info := plan.Layers[i]
		for k := 1; k <= MaxDup(info); k++ {
			if used+info.Cost*k > F {
				break
			}
			d[i] = k
			rec(i+1, used+info.Cost*k)
		}
		d[i] = 0
	}
	rec(0, 0)
	if bestObj == math.MaxFloat64 {
		return Solution{}, fmt.Errorf("mapping: no feasible duplication within %d PEs", F)
	}
	return finish(plan, best), nil
}
