package clsacim

import "fmt"

// Option configures an Engine at construction time (see New). Options
// that describe the architecture set the Engine's default Config;
// per-request knobs (model, mapping, scheduling mode) belong in the
// Request instead.
type Option func(*Engine) error

// WithConfig adopts a full legacy Config as the Engine's defaults.
// Later options overlay it, so it composes with the With* helpers.
func WithConfig(cfg Config) Option {
	return func(e *Engine) error {
		e.base = cfg
		return nil
	}
}

// WithCrossbar sets the PE crossbar dimensions (default 256x256).
func WithCrossbar(rows, cols int) Option {
	return func(e *Engine) error {
		if rows <= 0 || cols <= 0 {
			return fmt.Errorf("clsacim: invalid crossbar %dx%d", rows, cols)
		}
		e.base.PERows, e.base.PECols = rows, cols
		return nil
	}
}

// WithTMVMNanos sets the MVM cycle latency in nanoseconds (default
// 1400, the paper's RRAM figure).
func WithTMVMNanos(ns float64) Option {
	return func(e *Engine) error {
		if ns < 0 {
			return fmt.Errorf("clsacim: negative tMVM %g", ns)
		}
		e.base.TMVMNanos = ns
		return nil
	}
}

// WithNoC charges data movement on dependency edges at the given mesh
// cycles per hop (0 keeps the paper's idealized zero-cost movement).
func WithNoC(cyclesPerHop float64) Option {
	return func(e *Engine) error {
		if cyclesPerHop < 0 {
			return fmt.Errorf("clsacim: negative NoC cost %g", cyclesPerHop)
		}
		e.base.NoCCyclesPerHop = cyclesPerHop
		return nil
	}
}

// WithGPEU charges non-base-layer processing at the given cycles per
// 1024 transferred elements (0 = idealized).
func WithGPEU(cyclesPerKElem float64) Option {
	return func(e *Engine) error {
		if cyclesPerKElem < 0 {
			return fmt.Errorf("clsacim: negative GPEU cost %g", cyclesPerKElem)
		}
		e.base.GPEUCyclesPerKElem = cyclesPerKElem
		return nil
	}
}

// WithEnergy enables the energy estimate: nanojoules per PE per MVM
// cycle, and per crossbar programming event (virtualization).
func WithEnergy(perMVMNanoJ, perWriteNanoJ float64) Option {
	return func(e *Engine) error {
		if perMVMNanoJ < 0 || perWriteNanoJ < 0 {
			return fmt.Errorf("clsacim: negative energy cost (%g, %g)", perMVMNanoJ, perWriteNanoJ)
		}
		e.base.EnergyPerMVMNanoJ = perMVMNanoJ
		e.base.EnergyPerWriteNanoJ = perWriteNanoJ
		return nil
	}
}

// WithTargetSets sets the Stage I granularity (sets per layer;
// 0 = finest alignment-respecting partition, the paper's default).
func WithTargetSets(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("clsacim: negative target sets %d", n)
		}
		e.base.TargetSets = n
		return nil
	}
}

// WithWeightBits sets the weight quantization width (default 8;
// negative disables quantization).
func WithWeightBits(bits int) Option {
	return func(e *Engine) error {
		e.base.WeightBits = bits
		return nil
	}
}

// WithPEsPerTile groups PEs into NoC tiles (default 4).
func WithPEsPerTile(n int) Option {
	return func(e *Engine) error {
		if n <= 0 {
			return fmt.Errorf("clsacim: invalid PEs per tile %d", n)
		}
		e.base.PEsPerTile = n
		return nil
	}
}

// WithSolver sets the default duplication solver for requests that
// enable weight duplication without naming one. The name is validated
// against the registry (plain and scored solvers) immediately.
func WithSolver(name string) Option {
	return func(e *Engine) error {
		if err := checkSolver(name); err != nil {
			return err
		}
		e.base.Solver = name
		return nil
	}
}

// WithSolverBudget sets the default evaluation budget of scored solvers
// ("search"): how many candidate duplication vectors may be scored per
// compile (0 = solver default). Budgets count
// evaluations rather than wall clock so results stay reproducible.
func WithSolverBudget(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("clsacim: negative solver budget %d", n)
		}
		e.base.SolverBudget = n
		return nil
	}
}

// WithSolverSeed sets the default RNG seed of scored solvers. A fixed
// (seed, budget) pair makes the "search" solver fully deterministic.
func WithSolverSeed(seed uint64) Option {
	return func(e *Engine) error {
		e.base.SolverSeed = seed
		return nil
	}
}

// WithVirtualization permits architectures below PEmin (paper §V-C
// future work): swapped layers time-share a PE pool and are reprogrammed
// before execution, at writeCyclesPerCrossbar MVM cycles per crossbar
// with the given programming parallelism. Zero values keep the defaults
// (512 cycles, 4-wide).
func WithVirtualization(writeCyclesPerCrossbar int64, parallelism int) Option {
	return func(e *Engine) error {
		if writeCyclesPerCrossbar < 0 || parallelism < 0 {
			return fmt.Errorf("clsacim: invalid virtualization cost (%d cycles, %d-wide)",
				writeCyclesPerCrossbar, parallelism)
		}
		e.base.WeightVirtualization = true
		e.base.WriteCyclesPerCrossbar = writeCyclesPerCrossbar
		e.base.WriteParallelism = parallelism
		return nil
	}
}

// WithValidation runs the engine-independent invariant checker
// (internal/check) on every timeline the Engine schedules: topological
// dependency order over the Stage II edge set, per-crossbar mutual
// exclusion, window admission legality, Stage III/IV active-cycle
// conservation, and makespan/metrics consistency. A violation fails the
// request with a typed error instead of returning wrong numbers.
// Validation costs roughly one extra pass over the timeline per
// schedule; production services normally leave it off and rely on the
// fuzz/CI coverage, while debugging and canary deployments turn it on.
func WithValidation() Option {
	return func(e *Engine) error {
		e.validate = true
		return nil
	}
}

// WithWorkers bounds the EvaluateBatch worker pool (default
// runtime.GOMAXPROCS(0)).
func WithWorkers(n int) Option {
	return func(e *Engine) error {
		if n <= 0 {
			return fmt.Errorf("clsacim: invalid worker count %d", n)
		}
		e.workers = n
		return nil
	}
}

// WithCacheLimit bounds the compile cache to at most n retained
// compilations (default 0 = unbounded). Beyond the bound the
// least-recently-used finished entry is evicted; Stats.Evictions counts
// them. A long-running service sweeping many distinct
// (model, architecture, mapping) keys needs the bound to keep memory
// flat — each cached compilation holds the full Stage I/II analysis and
// every scheduled timeline of its model. In-flight compilations are
// never evicted, so the cache may transiently exceed n while more than
// n distinct keys compile concurrently.
func WithCacheLimit(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("clsacim: negative cache limit %d", n)
		}
		e.cacheLimit = n
		return nil
	}
}
