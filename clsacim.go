// Package clsacim is the public API of the CLSA-CIM reproduction: a
// compiler and system-level simulator for neural-network inference on
// tiled RRAM computing-in-memory (CIM) architectures, implementing the
// cross-layer scheduling algorithm and weight-duplication mapping of
//
//	Pelke et al., "CLSA-CIM: A Cross-Layer Scheduling Approach for
//	Computing-in-Memory Architectures", DATE 2024.
//
// The entry point is the Engine: a concurrency-safe evaluator that
// holds the architecture (a Config), caches compilations by
// (model, architecture, mapping) key, and runs batches on a bounded
// worker pool:
//
//	eng, _ := clsacim.New(clsacim.WithConfig(clsacim.Config{
//		PERows: 256, PECols: 256, // the defaults, shown for clarity
//		TMVMNanos: 1400,
//	}))
//	ev, _ := eng.Evaluate(ctx, clsacim.Request{
//		Model:             "tinyyolov4",
//		Mode:              clsacim.ModeCrossLayer, // xinf
//		ExtraPEs:          32,                     // x: F = PEmin + x
//		WeightDuplication: true,                   // wdup mapping
//	})
//	fmt.Println(ev.Speedup, ev.Result.Utilization)
//
// Requests round-trip through JSON, sweeps go through
// Engine.EvaluateBatch, and Engine.Stats exposes the compile-cache
// accounting. Custom duplication solvers plug in with RegisterSolver;
// custom models (see Builder) join the builtin table with
// RegisterModel.
//
// Compilation canonicalizes the network (BN folding, padding/bias
// partitioning, weight quantization), maps base layers onto crossbar PEs
// (optionally solving the weight-duplication problem), and runs CLSA-CIM
// Stages I-II (set and dependency determination). Scheduling runs Stages
// III-IV (or the layer-by-layer baseline) and reports the paper's
// metrics.
//
// The original one-shot entry points — Compile, Compiled.Schedule, and
// Evaluate — still work and are kept as thin compatibility wrappers;
// new code should prefer the Engine, which shares compilations that the
// one-shot API redoes on every call.
package clsacim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/gantt"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
)

// ScheduleMode selects the scheduling strategy. The zero value is the
// layer-by-layer baseline; ModeCrossLayer is unbounded cross-layer
// inference, and ModeWindow(K) is the bounded family in between.
// Values are comparable (==) and round-trip through JSON.
type ScheduleMode struct {
	p schedule.Policy
}

// Scheduling strategies: the paper's layer-by-layer baseline (§II-B) and
// CLSA-CIM cross-layer inference ("xinf", §IV).
var (
	ModeLayerByLayer = ScheduleMode{}
	ModeCrossLayer   = ScheduleMode{schedule.CrossLayer}
)

// ModeWindow returns the bounded cross-layer mode xK: at most k layers
// concurrently active. k = 1 behaves exactly like ModeLayerByLayer and
// k >= the model's layer count exactly like ModeCrossLayer; values in
// between interpolate between the paper's two extremes. Non-positive k
// yields ModeLayerByLayer.
func ModeWindow(k int) ScheduleMode {
	if k <= 0 {
		return ModeLayerByLayer
	}
	return ScheduleMode{schedule.Windowed(k)}
}

// Window returns the mode's admission bound: the maximum number of
// layers concurrently active (schedule.Unbounded for ModeCrossLayer).
func (m ScheduleMode) Window() int { return m.p.Window() }

// String names the mode as in the paper's plots.
func (m ScheduleMode) String() string {
	if m == ModeLayerByLayer {
		return "layer-by-layer"
	}
	return m.Name()
}

// Name returns the canonical short mode name accepted by ParseMode:
// "lbl", "xinf", or "x<K>".
func (m ScheduleMode) Name() string { return m.p.Name() }

// Config controls compilation. The zero value reproduces the paper's
// case-study architecture: 256x256 crossbars, tMVM = 1400 ns, F = PEmin,
// no weight duplication, idealized (zero-cost) data movement.
// Config round-trips through JSON (zero fields are omitted), so
// configurations can arrive over the wire alongside a Request; Validate
// is the one check of its fields.
type Config struct {
	// PERows and PECols are the crossbar dimensions (default 256x256).
	PERows int `json:"pe_rows,omitempty"`
	PECols int `json:"pe_cols,omitempty"`
	// TMVMNanos is the MVM latency of one cycle (default 1400 ns).
	TMVMNanos float64 `json:"tmvm_nanos,omitempty"`
	// ExtraPEs is the paper's x: the architecture provides
	// F = PEmin + x crossbars. Ignored when TotalPEs is set.
	ExtraPEs int `json:"extra_pes,omitempty"`
	// TotalPEs overrides the PE count F when positive.
	TotalPEs int `json:"total_pes,omitempty"`
	// WeightDuplication enables the wdup mapping (paper §III-C):
	// Optimization Problem 1 decides which layers to replicate.
	WeightDuplication bool `json:"weight_duplication,omitempty"`
	// Solver picks the duplication solver: "dp" (exact for the paper's
	// Optimization Problem 1, default), "greedy", "minmax" (bottleneck
	// objective, extension), "uniform" (even spread baseline), "none",
	// "search" (schedule-aware annealing scored by the Stage IV
	// makespan), or any name added through RegisterSolver.
	Solver string `json:"solver,omitempty"`
	// SolverBudget bounds the candidate evaluations of a scored solver
	// such as "search" (0 = the solver's default;
	// mapping.DefaultSearchBudget for "search"). The budget is expressed
	// in evaluations, not wall clock, so a fixed (seed, budget) pair is
	// reproducible across machines and GOMAXPROCS settings. Plain
	// solvers ignore it.
	SolverBudget int `json:"solver_budget,omitempty"`
	// SolverSeed seeds the deterministic move RNG of a scored solver.
	// Plain solvers ignore it.
	SolverSeed uint64 `json:"solver_seed,omitempty"`
	// SolverMode names the scheduling mode ("lbl", "x4", "xinf") whose
	// makespan a scored solver optimizes. Empty means "xinf". The Engine
	// fills it from the request's mode, so direct Engine users never set
	// it; it exists so the compile cache can key on it and one-shot
	// Compile callers can steer the search. Plain solvers ignore it.
	SolverMode string `json:"solver_mode,omitempty"`
	// TargetSets is the Stage I granularity (sets per layer). The
	// default is the finest alignment-respecting partition, which
	// realizes the paper's "maximum achievable utilization and minimum
	// inference latency". Use small values (e.g. 26) for coarse
	// scheduling experiments.
	TargetSets int `json:"target_sets,omitempty"`
	// WeightBits quantizes base-layer weights (default 8; negative
	// disables quantization).
	WeightBits int `json:"weight_bits,omitempty"`
	// NoCCyclesPerHop charges data movement per mesh hop on dependency
	// edges (extension of paper §V-C; 0 = idealized).
	NoCCyclesPerHop float64 `json:"noc_cycles_per_hop,omitempty"`
	// GPEUCyclesPerKElem charges non-base-layer processing per 1024
	// transferred elements on dependency edges (0 = idealized).
	GPEUCyclesPerKElem float64 `json:"gpeu_cycles_per_kelem,omitempty"`
	// PEsPerTile groups PEs into NoC tiles (default 4).
	PEsPerTile int `json:"pes_per_tile,omitempty"`
	// WeightVirtualization permits architectures with fewer PEs than
	// the network needs (TotalPEs < PEmin): swapped layers time-share a
	// PE pool and are reprogrammed before execution (the paper's §V-C
	// future-work scenario). Only layer-by-layer scheduling is possible
	// in this regime.
	WeightVirtualization bool `json:"weight_virtualization,omitempty"`
	// WriteCyclesPerCrossbar is the RRAM programming time per crossbar
	// in MVM cycles (default 512) when virtualization is active.
	WriteCyclesPerCrossbar int64 `json:"write_cycles_per_crossbar,omitempty"`
	// WriteParallelism is the number of crossbars programmable
	// concurrently (default 4).
	WriteParallelism int `json:"write_parallelism,omitempty"`
	// EnergyPerMVMNanoJ enables the energy estimate (extension): nJ
	// consumed by one PE per MVM cycle. 0 disables energy reporting.
	EnergyPerMVMNanoJ float64 `json:"energy_per_mvm_nj,omitempty"`
	// EnergyPerWriteNanoJ is the nJ cost of programming one crossbar
	// (virtualization).
	EnergyPerWriteNanoJ float64 `json:"energy_per_write_nj,omitempty"`
}

// ErrInvalidConfig reports a Config or request field outside its
// domain: a negative count, cost or timeout, a NaN or infinite float, a
// request without a model, or a malformed stream. The message names the
// field.
var ErrInvalidConfig = errors.New("clsacim: invalid config")

// Validate checks every field of c without compiling anything. Zero
// keeps meaning "default" for every field. Solver must name a
// registered solver (ErrUnknownSolver) and SolverMode a scheduling mode
// (ErrUnknownMode), even where the field would be ignored; every other
// violation wraps ErrInvalidConfig. New (through WithConfig), every
// Engine request path and Compile run it before any work.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"PERows", int64(c.PERows)},
		{"PECols", int64(c.PECols)},
		{"ExtraPEs", int64(c.ExtraPEs)},
		{"TotalPEs", int64(c.TotalPEs)},
		{"SolverBudget", int64(c.SolverBudget)},
		{"TargetSets", int64(c.TargetSets)},
		{"PEsPerTile", int64(c.PEsPerTile)},
		{"WriteCyclesPerCrossbar", c.WriteCyclesPerCrossbar},
		{"WriteParallelism", int64(c.WriteParallelism)},
	} {
		if f.v < 0 {
			return fmt.Errorf("%w: negative %s %d", ErrInvalidConfig, f.name, f.v)
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"TMVMNanos", c.TMVMNanos},
		{"NoCCyclesPerHop", c.NoCCyclesPerHop},
		{"GPEUCyclesPerKElem", c.GPEUCyclesPerKElem},
		{"EnergyPerMVMNanoJ", c.EnergyPerMVMNanoJ},
		{"EnergyPerWriteNanoJ", c.EnergyPerWriteNanoJ},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s %g is not a finite non-negative number", ErrInvalidConfig, f.name, f.v)
		}
	}
	if c.Solver != "" {
		if err := checkSolver(c.Solver); err != nil {
			return err
		}
	}
	if c.SolverMode != "" {
		if _, err := ParseMode(c.SolverMode); err != nil {
			return err
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.PERows == 0 {
		c.PERows = 256
	}
	if c.PECols == 0 {
		c.PECols = 256
	}
	if c.TMVMNanos == 0 {
		c.TMVMNanos = cim.DefaultTMVMNanos
	}
	if c.Solver == "" {
		c.Solver = "dp"
	}
	if c.TargetSets == 0 {
		c.TargetSets = sets.FineGranularity
	}
	if c.WeightBits == 0 {
		c.WeightBits = 8
	}
	if c.PEsPerTile == 0 {
		c.PEsPerTile = 4
	}
	if c.WriteCyclesPerCrossbar == 0 {
		c.WriteCyclesPerCrossbar = 512
	}
	if c.WriteParallelism == 0 {
		c.WriteParallelism = 4
	}
	return c
}

// solverFunc resolves the duplication solver from the process-wide
// registry (see RegisterSolver). Without weight duplication every layer
// keeps d_i = 1 regardless of the configured name.
func (c Config) solverFunc() (mapping.Func, error) {
	if !c.WeightDuplication {
		return lookupSolver(mapping.SolverNone.String())
	}
	return lookupSolver(c.Solver)
}

// Compiled is a model compiled against an architecture: canonicalized,
// mapped (with duplication applied), and analyzed by CLSA-CIM Stages
// I-II. It can be scheduled in any mode.
type Compiled struct {
	ModelName string
	cfg       Config
	arch      cim.Config
	graph     *nn.Graph
	plan      *mapping.Plan
	mapped    *mapping.Mapping
	setsPlan  *sets.Plan
	depGraph  *deps.Graph
	dup       mapping.Solution
	peMin     int
	edgeCost  schedule.EdgeCostFn
	// virtual is non-nil when the network does not fit (F < PEmin) and
	// weight virtualization is active.
	virtual *mapping.VirtualMapping
	// check runs the internal/check invariant set on every timeline
	// the compilation builds; an Engine built WithValidation sets it.
	check bool

	// sched is the compilation's mutable scheduling state, shared by
	// pointer between a base compilation and its derived F-views (see
	// withExtraPEs), so all of them reuse one set of timelines.
	sched *schedState
}

// schedState caches what scheduling derives from a compilation's
// immutable Stage I-III artifacts.
//
// timelines caches checked schedules per canonical mode (foldMode). A
// Compiled is immutable and shared through the Engine's compile cache,
// so the schedule of a (compile key, mode) pair is computed and checked
// once; sweeps that rescore the same baseline hit this cache. Per-PE
// activity and the buffer peak are derived from a cached timeline on
// demand (Report.PEActive, Report.PeakLiveElems).
type schedState struct {
	mu        sync.Mutex
	timelines map[ScheduleMode]*schedule.Timeline
}

// Virtualized reports whether the compilation uses weight reloading
// (F < PEmin).
func (c *Compiled) Virtualized() bool { return c.virtual != nil }

// ReloadCyclesTotal returns the summed crossbar-programming time per
// inference (0 without virtualization).
func (c *Compiled) ReloadCyclesTotal() int64 {
	if c.virtual == nil {
		return 0
	}
	return c.virtual.TotalReload
}

// CrossbarWritesPerInference returns the number of crossbars programmed
// per inference — the endurance pressure of running below PEmin.
func (c *Compiled) CrossbarWritesPerInference() int {
	if c.virtual == nil {
		return 0
	}
	return c.virtual.Writes
}

// ResidentLayers returns how many layers keep dedicated weights.
func (c *Compiled) ResidentLayers() int {
	if c.virtual == nil {
		return len(c.plan.Layers)
	}
	n := 0
	for _, r := range c.virtual.Resident {
		if r {
			n++
		}
	}
	return n
}

// Compile lowers model through the full preparation pipeline. It is
// the one-shot entry point kept for compatibility: every call redoes
// the whole pipeline. New code should go through an Engine, whose
// compile cache shares this work across requests.
func Compile(model *Model, cfg Config) (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return compile(model, cfg, buildCSR)
}

// csrSource returns the Stage II dependency CSR of a Stage I plan over
// g: buildCSR runs Stage II, an Engine's graph tier shares one CSR per
// model and set grid (Engine.sharedCSR).
type csrSource func(g *nn.Graph, sp *sets.Plan) (*deps.CSR, error)

// buildCSR is the csrSource of the one-shot Compile.
func buildCSR(g *nn.Graph, sp *sets.Plan) (*deps.CSR, error) {
	dg, err := deps.Build(g, sp)
	if err != nil {
		return nil, err
	}
	return dg.CSR, nil
}

// compile is Compile on a validated cfg, taking Stage II from csrOf.
// The CSR holds no mapping pointers, so a shared one serves every
// compilation with the same grid; the deps.Graph pairs it with this
// compilation's own Stage I plan, whose groups carry its Dup.
func compile(model *Model, cfg Config, csrOf csrSource) (*Compiled, error) {
	cfg = cfg.withDefaults()
	scored := cfg.WeightDuplication && mapping.IsScored(cfg.Solver)
	var solve mapping.Func
	var err error
	if !scored {
		solve, err = cfg.solverFunc()
		if err != nil {
			return nil, err
		}
	}
	g, err := model.graph()
	if err != nil {
		return nil, fmt.Errorf("clsacim: building model %q: %w", model.Name, err)
	}
	wb := cfg.WeightBits
	if wb < 0 {
		wb = 0
	}
	if _, err := frontend.Canonicalize(g, frontend.Options{WeightBits: wb}); err != nil {
		return nil, fmt.Errorf("clsacim: canonicalizing %q: %w", model.Name, err)
	}
	pe := im2col.PEDims{Rows: cfg.PERows, Cols: cfg.PECols}
	plan, err := mapping.Analyze(g, pe)
	if err != nil {
		return nil, fmt.Errorf("clsacim: analyzing %q: %w", model.Name, err)
	}
	f := plan.MinPEs + cfg.ExtraPEs
	if cfg.TotalPEs > 0 {
		f = cfg.TotalPEs
	}
	arch := cim.Config{
		NumPEs:             f,
		PE:                 pe,
		TMVMNanos:          cfg.TMVMNanos,
		PEsPerTile:         cfg.PEsPerTile,
		WeightBits:         wb,
		CellBits:           4,
		InputBits:          8,
		GPEUCyclesPerKElem: cfg.GPEUCyclesPerKElem,
	}
	if cfg.NoCCyclesPerHop > 0 {
		arch.NoC = cim.NoCConfig{Enabled: true, CyclesPerHop: cfg.NoCCyclesPerHop}
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	var sol mapping.Solution
	var mapped *mapping.Mapping
	var virtual *mapping.VirtualMapping
	if f < plan.MinPEs {
		if !cfg.WeightVirtualization {
			return nil, fmt.Errorf("clsacim: %q needs %d PEs but the architecture has %d; "+
				"enable WeightVirtualization to run below PEmin", model.Name, plan.MinPEs, f)
		}
		virtual, err = mapping.SolveVirtual(plan, f, mapping.WriteCost{
			CyclesPerCrossbar: cfg.WriteCyclesPerCrossbar,
			Parallelism:       cfg.WriteParallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("clsacim: virtualizing %q: %w", model.Name, err)
		}
		mapped = virtual.Mapping
		sol = mapping.Solution{D: mapped.Dup, PEsNeeded: mapped.PEsUsed}
	} else {
		if scored {
			sol, err = solveScored(cfg, g, plan, f, arch, csrOf)
		} else {
			sol, err = solve(plan, f)
		}
		if err != nil {
			return nil, fmt.Errorf("clsacim: solving duplication for %q: %w", model.Name, err)
		}
		mapped, err = mapping.Apply(g, plan, sol, f)
		if err != nil {
			return nil, fmt.Errorf("clsacim: applying mapping for %q: %w", model.Name, err)
		}
	}
	setsPlan, err := sets.Determine(g, mapped, sets.Options{TargetSets: cfg.TargetSets})
	if err != nil {
		return nil, fmt.Errorf("clsacim: stage I for %q: %w", model.Name, err)
	}
	csr, err := csrOf(g, setsPlan)
	if err != nil {
		return nil, fmt.Errorf("clsacim: stage II for %q: %w", model.Name, err)
	}
	depGraph := &deps.Graph{Plan: setsPlan, CSR: csr}
	c := &Compiled{
		ModelName: model.Name,
		sched: &schedState{
			timelines: make(map[ScheduleMode]*schedule.Timeline),
		},
		cfg:      cfg,
		arch:     arch,
		graph:    g,
		plan:     plan,
		mapped:   mapped,
		setsPlan: setsPlan,
		depGraph: depGraph,
		dup:      sol,
		peMin:    plan.MinPEs,
		virtual:  virtual,
	}
	c.edgeCost = edgeCostFn(arch, mapped)
	return c, nil
}

// withExtraPEs derives the F = PEmin + x view of a base compilation
// (compiled with ExtraPEs = 0). Without weight duplication, TotalPEs,
// and NoC routing, every Stage I-III artifact and every timeline is
// independent of how many idle extra PEs the architecture provides —
// only the reported F, the Eq. 2 utilization denominator, and the Eq. 3
// x differ. The view is a shallow copy with the PE count adjusted; the
// scheduling state (the timeline cache) stays shared with the base, so
// a no-duplication ExtraPEs sweep compiles and schedules once.
func (c *Compiled) withExtraPEs(x int) *Compiled {
	v := *c
	v.cfg.ExtraPEs = x
	v.arch.NumPEs = c.peMin + x
	mv := *c.mapped
	mv.F = v.arch.NumPEs
	v.mapped = &mv
	return &v
}

// edgeCostFn assembles the optional NoC + GPEU dependency-edge cost for
// a mapping on an architecture (nil when idealized). It is a free
// function rather than a Compiled method because the scored-solver
// evaluation loop needs it for candidate mappings that never become a
// Compiled.
func edgeCostFn(arch cim.Config, mapped *mapping.Mapping) schedule.EdgeCostFn {
	noc := arch.NoC.Enabled && arch.NoC.CyclesPerHop > 0
	gpeu := arch.GPEUCyclesPerKElem > 0
	if !noc && !gpeu {
		return nil
	}
	tileOf := make([]int, len(mapped.Groups))
	for i, g := range mapped.Groups {
		if len(g.PEs) > 0 {
			tileOf[i] = arch.TileOf(g.PEs[0])
		}
	}
	return func(pred deps.SetRef, toLayer int) int64 {
		var cost float64
		if noc {
			cost += float64(arch.HopDistance(tileOf[pred.Layer], tileOf[toLayer])) * arch.NoC.CyclesPerHop
		}
		if gpeu {
			cost += arch.GPEUCyclesPerKElem * float64(pred.Vol) / 1024.0
		}
		return int64(cost + 0.5)
	}
}

// scoringMode resolves the mode a scored solver optimizes for from
// Config.SolverMode (default xinf), folded onto its canonical
// representative for the layer count (foldMode).
func scoringMode(cfg Config, layers int) (ScheduleMode, error) {
	mode := ModeCrossLayer
	if cfg.SolverMode != "" {
		var err error
		mode, err = ParseMode(cfg.SolverMode)
		if err != nil {
			return ScheduleMode{}, err
		}
	}
	return foldMode(mode, layers), nil
}

// foldMode folds modes with provably identical schedules on a network
// of the given layer count onto one canonical representative: any
// window-1 mode is lbl, and any window at least the layer count is xinf
// (the gate never engages).
func foldMode(mode ScheduleMode, layers int) ScheduleMode {
	switch k := mode.Window(); {
	case k <= 1:
		return ModeLayerByLayer
	case k >= layers:
		return ModeCrossLayer
	default:
		return mode
	}
}

// solveScored runs a schedule-aware duplication solver, pricing each
// candidate vector with a candidateScorer.
func solveScored(cfg Config, g *nn.Graph, plan *mapping.Plan, f int, arch cim.Config, csrOf csrSource) (mapping.Solution, error) {
	fn, ok := mapping.LookupScored(cfg.Solver)
	if !ok {
		return mapping.Solution{}, fmt.Errorf("%w %q", ErrUnknownSolver, cfg.Solver)
	}
	sc, err := newCandidateScorer(cfg, g, plan, f, arch, csrOf)
	if err != nil {
		return mapping.Solution{}, err
	}
	return fn(plan, f, sc.score, mapping.ScoredOptions{Seed: cfg.SolverSeed, Budget: cfg.SolverBudget})
}

// candidateScorer is the scored solvers' cost model: the makespan a
// duplication vector achieves under the scoring mode, computed by the
// Stage IV list scheduler's makespan pass over the real Stage I/II
// graph. A vector changes that graph only through its per-layer Stage I
// set targets (sets.LayerTarget), so the scorer keeps the graph of the
// last target signature and rebuilds Stage I/II only when the signature
// changes — never, after the first candidate, at FineGranularity. The
// pass takes the candidate's own d (the reused graph's Group.Dup
// belongs to whichever vector built it) and reuses one Scratch, so a
// candidate that keeps the signature costs its mapping.Apply plus one
// allocation-free scheduling pass. The first graph comes from firstCSR,
// so under an Engine a model whose grid is already in the graph tier
// runs no Stage II at all.
type candidateScorer struct {
	g          *nn.Graph
	plan       *mapping.Plan
	f          int
	arch       cim.Config
	targetSets int
	policy     schedule.Policy
	// edges mirrors schedOptions: edge costs engage only under
	// cross-layer overlap, so the search optimizes exactly what the
	// final schedule will be charged.
	edges bool

	targets  []int       // per-layer sets.LayerTarget signature of dg
	dg       *deps.Graph // nil until the first candidate, or after a failed build
	builds   int         // Stage I/II graphs taken so far
	firstCSR csrSource   // source of the first graph; later ones run buildCSR
	scratch  schedule.Scratch
}

func newCandidateScorer(cfg Config, g *nn.Graph, plan *mapping.Plan, f int, arch cim.Config, firstCSR csrSource) (*candidateScorer, error) {
	mode, err := scoringMode(cfg, len(plan.Layers))
	if err != nil {
		return nil, err
	}
	return &candidateScorer{
		g: g, plan: plan, f: f, arch: arch,
		targetSets: cfg.TargetSets,
		policy:     mode.p,
		edges:      mode.Window() > 1,
		targets:    make([]int, len(plan.Layers)),
		firstCSR:   firstCSR,
	}, nil
}

// score returns the makespan in cycles that duplication vector d
// achieves; it is the mapping.ScoreFunc handed to the solver.
func (s *candidateScorer) score(d []int) (int64, error) {
	sol, err := mapping.NewSolution(s.plan, d)
	if err != nil {
		return 0, err
	}
	mapped, err := mapping.Apply(s.g, s.plan, sol, s.f)
	if err != nil {
		return 0, err
	}
	stale := s.dg == nil
	for i, di := range d {
		if t := sets.LayerTarget(s.targetSets, di); t != s.targets[i] {
			s.targets[i] = t
			stale = true
		}
	}
	if stale {
		s.dg = nil
		setsPlan, err := sets.Determine(s.g, mapped, sets.Options{TargetSets: s.targetSets})
		if err != nil {
			return 0, err
		}
		csrOf := buildCSR
		if s.builds == 0 {
			csrOf = s.firstCSR
		}
		csr, err := csrOf(s.g, setsPlan)
		if err != nil {
			return 0, err
		}
		s.dg = &deps.Graph{Plan: setsPlan, CSR: csr}
		s.builds++
	}
	var edge schedule.EdgeCostFn
	if s.edges {
		edge = edgeCostFn(s.arch, mapped)
	}
	return s.scratch.Makespan(s.dg, d, s.policy, edge)
}

// PEmin returns the minimum PE count storing every weight once.
func (c *Compiled) PEmin() int { return c.peMin }

// TotalPEs returns F, the PE count of the compiled architecture.
func (c *Compiled) TotalPEs() int { return c.arch.NumPEs }

// PEsUsed returns the number of PEs actually allocated after mapping.
func (c *Compiled) PEsUsed() int { return c.mapped.PEsUsed }

// NumSets returns the total Stage I set count.
func (c *Compiled) NumSets() int { return c.depGraph.NumSets() }

// NumDepEdges returns the total Stage II dependency-edge count.
func (c *Compiled) NumDepEdges() int { return c.depGraph.NumEdges() }

// Report holds the scheduling outcome and the paper's metrics for one
// (mapping, scheduling) configuration.
type Report struct {
	Model          string
	Mode           ScheduleMode
	F              int
	PEmin          int
	MakespanCycles int64
	// LatencyNanos is MakespanCycles * tMVM.
	LatencyNanos float64
	// Utilization is paper Eq. 2.
	Utilization float64
	// Duplication holds the applied d vector (plan-layer order).
	Duplication []int
	// EnergyMicroJoule is the dynamic compute energy estimate
	// (extension; 0 unless Config.EnergyPerMVMNanoJ is set).
	EnergyMicroJoule float64
	// ReloadCycles is the total crossbar-programming time included in
	// the makespan (weight virtualization only).
	ReloadCycles int64

	sched *schedule.Timeline
	comp  *Compiled
}

// schedOptions returns the scheduling options of a mode: dependency
// edges carry the NoC/GPEU cost only under cross-layer overlap (any
// window above 1); the layer-by-layer baseline stays idealized as in
// the paper.
func (c *Compiled) schedOptions(mode ScheduleMode) schedule.Options {
	var opt schedule.Options
	if mode.Window() > 1 {
		opt.EdgeCost = c.edgeCost
	}
	return opt
}

// normalizeMode is foldMode for the compilation's layer count. It keeps
// the timeline cache from computing x1 next to lbl, or x<large> next to
// xinf.
func (c *Compiled) normalizeMode(mode ScheduleMode) ScheduleMode {
	return foldMode(mode, len(c.depGraph.Plan.Layers))
}

// timeline returns the execution timeline of the compilation under
// mode, computing it at most once per canonical mode (the Compiled is
// shared through the Engine's compile cache, so repeated requests — in
// particular the layer-by-layer baseline of every evaluation — reuse
// it). It is the one place a single-inference timeline is built,
// checked and cached: Timeline.Validate always runs, and the
// engine-independent check.Timeline too when c.check is set, so each
// timeline is checked once, when first built, and a timeline that fails
// is never cached.
func (c *Compiled) timeline(mode ScheduleMode) (*schedule.Timeline, error) {
	mode = c.normalizeMode(mode)
	c.sched.mu.Lock()
	cached, ok := c.sched.timelines[mode]
	c.sched.mu.Unlock()
	if ok {
		return cached, nil
	}
	var t *schedule.Timeline
	var err error
	opt := c.schedOptions(mode)
	if c.virtual != nil {
		if mode.Window() != 1 {
			return nil, fmt.Errorf("clsacim: %q runs on %d < PEmin=%d PEs; cross-layer scheduling requires full weight residency",
				c.ModelName, c.arch.NumPEs, c.peMin)
		}
		t, err = schedule.LayerByLayerVirtual(c.depGraph, c.virtual.ReloadCycles)
	} else {
		t, err = schedule.Schedule(c.depGraph, mode.p, opt)
	}
	if err != nil {
		return nil, err
	}
	if err := t.Validate(c.depGraph, opt); err != nil {
		return nil, fmt.Errorf("clsacim: schedule validation: %w", err)
	}
	if c.check {
		if err := check.Timeline(c.mapped, c.depGraph, t.Policy, t, check.Options{EdgeCost: opt.EdgeCost}); err != nil {
			return nil, fmt.Errorf("clsacim: %q %s timeline failed validation: %w", c.ModelName, mode, err)
		}
	}
	c.sched.mu.Lock()
	if prev, ok := c.sched.timelines[mode]; ok {
		t = prev // a concurrent builder won the race; both are identical
	} else {
		c.sched.timelines[mode] = t
	}
	c.sched.mu.Unlock()
	return t, nil
}

// hasTimeline reports whether the canonical mode's timeline is already
// cached — the Engine's partial-hit accounting asks this before
// scheduling on a cache-hit compilation.
func (c *Compiled) hasTimeline(mode ScheduleMode) bool {
	c.sched.mu.Lock()
	_, ok := c.sched.timelines[c.normalizeMode(mode)]
	c.sched.mu.Unlock()
	return ok
}

// Schedule runs Stage III/IV under the mode's policy (the layer-by-layer
// baseline, xK bounded windows, or full cross-layer) and computes the
// metrics. The schedule is validated before being returned. Virtualized
// compilations (F < PEmin) support only window-1 scheduling: cross-layer
// overlap would require swapped weights to be present twice.
func (c *Compiled) Schedule(mode ScheduleMode) (*Report, error) {
	s, err := c.timeline(mode)
	if err != nil {
		return nil, err
	}
	ut, err := metrics.Utilization(s, c.mapped)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Model:          c.ModelName,
		Mode:           mode,
		F:              c.arch.NumPEs,
		PEmin:          c.peMin,
		MakespanCycles: s.Makespan,
		LatencyNanos:   metrics.LatencyNanos(s.Makespan, c.arch.TMVMNanos),
		Utilization:    ut,
		Duplication:    append([]int(nil), c.dup.D...),
		ReloadCycles:   c.ReloadCyclesTotal(),
		sched:          s,
		comp:           c,
	}
	if c.cfg.EnergyPerMVMNanoJ > 0 {
		nj, err := metrics.EnergyNanoJoule(s, c.mapped,
			c.cfg.EnergyPerMVMNanoJ, c.cfg.EnergyPerWriteNanoJ, c.CrossbarWritesPerInference())
		if err != nil {
			return nil, err
		}
		rep.EnergyMicroJoule = nj / 1000
	}
	return rep, nil
}

// LayerSpan reports when one replica PE group of a base layer was first
// and last active, and its total busy time.
type LayerSpan struct {
	Name     string
	Replica  int // 0 <= Replica < DupCount
	DupCount int
	PEs      int // crossbars of this replica (c_i)
	Start    int64
	End      int64
	Active   int64
}

// LayerSpans returns per-replica activity of the schedule in plan order,
// for Gantt rendering and analysis.
func (r *Report) LayerSpans() []LayerSpan {
	var out []LayerSpan
	for li, g := range r.comp.mapped.Groups {
		base := len(out)
		for rep := 0; rep < g.Dup; rep++ {
			out = append(out, LayerSpan{
				Name: g.Node.Name, Replica: rep, DupCount: g.Dup,
				PEs:    g.PEsPerReplica(),
				Active: r.sched.ReplicaActive[li][rep],
				Start:  -1,
			})
		}
		for si := range r.sched.ItemsOf(li) {
			it := r.sched.At(li, si)
			span := &out[base+it.Replica]
			if span.Start < 0 || it.Start < span.Start {
				span.Start = it.Start
			}
			span.End = max(span.End, it.End)
		}
		for i := base; i < len(out); i++ {
			out[i].Start = max(out[i].Start, 0)
		}
	}
	return out
}

// RenderGantt writes an ASCII Gantt chart of the schedule (the textual
// analogue of paper Fig. 6a/6b) to w. width is the number of time
// buckets (0 for the default).
func (r *Report) RenderGantt(w io.Writer, width int) error {
	rows := gantt.FromSchedule(r.comp.depGraph, r.sched)
	title := fmt.Sprintf("%s, F=%d (%s, %s)", r.Model, r.F, mappingLabel(r.comp.cfg), r.Mode)
	return gantt.Render(w, title, rows, r.MakespanCycles, gantt.Options{Width: width, ShowPEs: true})
}

func mappingLabel(cfg Config) string {
	if cfg.WeightDuplication {
		return "wdup"
	}
	return "no duplication"
}

// CriticalStep is one element of the schedule's critical path.
type CriticalStep struct {
	Layer  string
	Set    int
	Start  int64
	End    int64
	Cause  string // "dep", "resource", "window", or "start"
	Cycles int64
}

// CriticalPath returns the chain of set executions that determines the
// makespan (earliest first): each step could not start earlier because
// of the previous one (a data dependency or the same replica's previous
// set). It answers "which layers limit inference latency" — the
// duplication candidates for the next extra PEs.
func (r *Report) CriticalPath() ([]CriticalStep, error) {
	path, err := r.sched.CriticalPath(r.comp.depGraph, r.comp.schedOptions(r.Mode))
	if err != nil {
		return nil, err
	}
	out := make([]CriticalStep, len(path))
	for i, st := range path {
		out[i] = CriticalStep{
			Layer:  r.comp.depGraph.Plan.Layers[st.Item.Layer].Group.Node.Name,
			Set:    st.Item.Set,
			Start:  st.Item.Start,
			End:    st.Item.End,
			Cause:  st.Cause,
			Cycles: st.Item.End - st.Item.Start,
		}
	}
	return out, nil
}

// CriticalLayers aggregates the critical path per layer, sorted along
// the path: how many makespan cycles each layer chain contributes.
func (r *Report) CriticalLayers() ([]CriticalStep, error) {
	path, err := r.sched.CriticalPath(r.comp.depGraph, r.comp.schedOptions(r.Mode))
	if err != nil {
		return nil, err
	}
	var out []CriticalStep
	for _, sum := range schedule.SummarizeCriticalPath(r.comp.depGraph, path) {
		out = append(out, CriticalStep{Layer: sum.Name, Set: sum.Steps, Cycles: sum.Cycles})
	}
	return out, nil
}

// PEActive returns the busy cycles of each of the F PEs over the
// schedule (the per-PE terms of paper Eq. 2). PEs shared between layers
// under weight virtualization sum the activity of every layer placed on
// them.
func (r *Report) PEActive() []int64 {
	return metrics.PEActive(r.sched, r.comp.mapped)
}

// PeakLiveElems returns the largest number of intermediate OFM elements
// buffered at one instant of the schedule: a set's output is live from
// its end to the end of its last reader.
func (r *Report) PeakLiveElems() int64 {
	return metrics.PeakLiveElems(r.sched, r.comp.depGraph)
}

// WriteScheduleJSON serializes the full set-level schedule (layer names,
// replica assignment, per-set timing and OFM boxes) as indented JSON for
// external tooling.
func (r *Report) WriteScheduleJSON(w io.Writer) error {
	return r.sched.WriteJSON(w, r.comp.depGraph)
}

// Evaluation compares one configuration against the paper's reference:
// layer-by-layer scheduling without weight duplication on F = PEmin PEs.
type Evaluation struct {
	Baseline *Report // lbl, x = 0, no duplication
	Result   *Report
	// Speedup is Baseline.MakespanCycles / Result.MakespanCycles.
	Speedup float64
	// UtilizationGain is Result.Utilization / Baseline.Utilization.
	UtilizationGain float64
	// Eq3Speedup is the paper's Eq. 3 estimate from the utilizations.
	Eq3Speedup float64
}

// Evaluate compiles and schedules model under cfg and mode, and measures
// speedup and utilization gain against the layer-by-layer reference. It
// is a one-shot compatibility wrapper around a throwaway Engine; sweeps
// and services should hold an Engine so the baseline and repeated
// configurations compile once instead of per call.
func Evaluate(model *Model, cfg Config, mode ScheduleMode) (*Evaluation, error) {
	e, err := New(WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return e.EvaluateModel(context.Background(), model, Request{Mode: mode})
}
