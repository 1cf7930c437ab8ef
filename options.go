package clsacim

import "fmt"

// Option configures an Engine at construction time (see New).
// WithConfig sets the architecture and mapping defaults; per-request
// knobs (model, mapping, scheduling mode) belong in the Request instead.
type Option func(*Engine) error

// WithConfig adopts cfg as the Engine's default Config, which every
// Request overlays. cfg must pass Config.Validate, so New fails on an
// invalid architecture instead of the first request.
func WithConfig(cfg Config) Option {
	return func(e *Engine) error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		e.base = cfg
		return nil
	}
}

// WithValidation runs the engine-independent invariant checker
// (internal/check) on every timeline the Engine schedules: topological
// dependency order over the Stage II edge set, per-crossbar mutual
// exclusion, window admission legality, Stage III/IV active-cycle
// conservation, and makespan/metrics consistency. A violation fails the
// request with a typed error instead of returning wrong numbers. Each
// timeline is checked once, when the Engine first builds it, and cached
// only if it passes; every stream is checked as a whole (check.Stream).
// Validation costs roughly one extra pass over each new timeline;
// production services normally leave it off and rely on the fuzz/CI
// coverage, while debugging and canary deployments turn it on.
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
