package clsacim

import (
	"container/list"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clsacim/internal/deps"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
	"clsacim/internal/nn"
	"clsacim/internal/sets"
)

// Engine is the concurrency-safe entry point of the package: it holds
// an architecture description (set through WithConfig), a keyed compile
// cache, and a bounded worker pool for batch evaluation.
//
// Compilation — frontend canonicalization, im2col analysis, duplication
// solving, Stage I-II — dominates the cost of an evaluation, and sweeps
// (many mapping points, one model) as well as services (many requests,
// few distinct configurations) repeat it needlessly with the one-shot
// Compile/Evaluate API. The Engine compiles each distinct
// (model, architecture, mapping) key exactly once and shares the
// immutable *Compiled across all subsequent requests; Stats exposes the
// hit accounting. All methods are safe for concurrent use.
//
// Under the compile cache sits a graph tier. Stage II reads a mapping
// only through its Stage I set grid, and at the default fine
// granularity that grid ignores the duplication vector, so a model's
// baseline and all its wdup variants depend identically. The tier keeps
// one Stage II dependency CSR per (model, WeightBits, crossbar dims,
// exact set grid), built once with the same single-flight as a compile
// and shared by every cache entry with that grid; each compilation
// still keeps its own Stage I plan. A graph lives only as long as a
// cached or in-flight compilation holds it, so the cache bound also
// bounds the tier (Stats.GraphBuilds and GraphHits count its use).
//
// Two properties make the cache safe under sustained multi-tenant
// traffic (e.g. behind the serve package's HTTP daemon):
//
//   - Single-flight compilation: concurrent requests for the same key
//     share one compilation — the first requester compiles, everyone
//     else waits on it (honoring their context), so a burst of
//     identical requests costs one compile, not N.
//   - Bounded memory: WithCacheLimit caps the number of retained
//     compilations; beyond the cap, the least-recently-used finished
//     entry is evicted (Stats.Evictions counts them). In-flight
//     compilations are never evicted, so the bound can be exceeded
//     transiently while more than CacheLimit distinct keys compile at
//     once.
type Engine struct {
	base       Config
	workers    int
	validate   bool
	cacheLimit int // 0 = unbounded

	mu     sync.Mutex
	cache  map[string]*compileEntry
	lru    *list.List             // *compileEntry values; front = most recently used
	graphs map[string]*graphEntry // the graph tier, keyed by graphKey

	compiles    atomic.Int64
	hits        atomic.Int64
	partialHits atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	evaluations atomic.Int64
	graphBuilds atomic.Int64
	graphHits   atomic.Int64
	streamEvals atomic.Int64
	streamInfs  atomic.Int64
}

// compileEntry is a cache slot with single-flight semantics: the first
// requester compiles, everyone else waits on ready.
type compileEntry struct {
	key   string
	ready chan struct{}
	c     *Compiled
	err   error

	// done is set just before ready is closed; the eviction scan reads
	// it under Engine.mu to skip in-flight entries without blocking.
	done bool
	// elem is the entry's LRU position, nil once evicted. Guarded by
	// Engine.mu.
	elem *list.Element
	// graphs are the tier graphs the entry holds: while in flight,
	// every one its compilation took; once done, only the one its
	// Compiled uses. Guarded by Engine.mu.
	graphs []*graphEntry
}

// graphEntry is one shared Stage II CSR of the graph tier, filled with
// the same single-flight as compileEntry: the first compilation that
// needs it builds it, later ones wait on ready.
type graphEntry struct {
	key   string
	ready chan struct{}
	csr   *deps.CSR
	err   error
	// refs counts the cache entries holding the graph; the tier drops
	// it with the last one. Guarded by Engine.mu.
	refs int
}

// New builds an Engine from functional options. The zero option set
// reproduces the paper's case-study architecture (256x256 crossbars,
// tMVM = 1400 ns, idealized data movement).
func New(opts ...Option) (*Engine, error) {
	e := &Engine{
		workers: runtime.GOMAXPROCS(0),
		cache:   make(map[string]*compileEntry),
		lru:     list.New(),
		graphs:  make(map[string]*graphEntry),
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// MustNew is New panicking on error, for initialization of harnesses
// and tests where the options are static.
func MustNew(opts ...Option) *Engine {
	e, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// Stats is a snapshot of the Engine's cache and work accounting. Its
// json tags are the wire form of the engine block of the serve
// package's /v1/stats.
type Stats struct {
	// Compiles counts full pipeline compilations actually executed —
	// one per distinct (model, architecture, mapping) key requested.
	Compiles int64 `json:"compiles"`
	// CacheHits counts compile requests served from the cache
	// (including requests that waited on an in-flight compilation).
	CacheHits int64 `json:"cache_hits"`
	// PartialHits counts the cache hits that still ran Stage III/IV
	// because the requested scheduling mode had no cached timeline yet —
	// the incremental re-simulation path (compile reused, event loop
	// re-run). CacheHits - PartialHits are full hits serving both the
	// compilation and the timeline from cache.
	PartialHits int64 `json:"partial_hits"`
	// CacheMisses counts compile requests that had to compile.
	CacheMisses int64 `json:"cache_misses"`
	// Evictions counts cached compilations dropped by the LRU bound
	// (see WithCacheLimit). Always 0 on an unbounded engine.
	Evictions int64 `json:"cache_evictions"`
	// Evaluations counts completed Evaluate calls.
	Evaluations int64 `json:"evaluations"`
	// StreamEvaluations counts completed EvaluateStream calls, and
	// StreamInferences the total inferences they served.
	StreamEvaluations int64 `json:"stream_evaluations"`
	StreamInferences  int64 `json:"stream_inferences"`
	// CachedEntries is the current number of cached compilations.
	CachedEntries int `json:"cached_entries"`
	// CacheLimit is the configured bound on CachedEntries (0 =
	// unbounded).
	CacheLimit int `json:"cache_limit"`
	// GraphBuilds counts the Stage II dependency graphs the graph tier
	// built, and GraphHits the compilations (or first scored-solver
	// candidates) that took an existing graph instead.
	GraphBuilds int64 `json:"graph_builds"`
	GraphHits   int64 `json:"graph_hits"`
}

// Stats returns a consistent-enough snapshot of the Engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	return Stats{
		Compiles:          e.compiles.Load(),
		CacheHits:         e.hits.Load(),
		PartialHits:       e.partialHits.Load(),
		CacheMisses:       e.misses.Load(),
		Evictions:         e.evictions.Load(),
		Evaluations:       e.evaluations.Load(),
		GraphBuilds:       e.graphBuilds.Load(),
		GraphHits:         e.graphHits.Load(),
		StreamEvaluations: e.streamEvals.Load(),
		StreamInferences:  e.streamInfs.Load(),
		CachedEntries:     entries,
		CacheLimit:        e.cacheLimit,
	}
}

// normalizeCfg canonicalizes a Config for cache keying and returns the
// ExtraPEs the caller must re-apply as a derived view (withExtraPEs).
// Configs are defaulted first so that e.g. Config{} and
// Config{PERows: 256, PECols: 256} share an entry, and
// compile-irrelevant fields are normalized away:
//
//   - Without weight duplication the solver never runs, so all solver
//     names map to the same no-duplication compilation — a solver
//     comparison sweep shares one baseline.
//   - Without weight duplication (and without TotalPEs), extra PEs sit
//     idle: every Stage I-III artifact and every timeline is identical
//     for any ExtraPEs >= 0, so the whole x sweep folds onto the x = 0
//     compilation and is served through F-adjusted views. NoC routing
//     disables this fold — the mesh shape (and with it every hop
//     distance on dependency edges) derives from the PE count.
func normalizeCfg(cfg Config) (Config, int) {
	cfg = cfg.withDefaults()
	// Scored-solver knobs influence compilation only when a scored
	// solver actually runs; otherwise they are cleared so e.g. a dp
	// request with a stray seed shares the plain dp entry. When they do
	// apply, the scoring mode is canonicalized to its wire name (default
	// "xinf") so aliases share an entry.
	if cfg.WeightDuplication && mapping.IsScored(cfg.Solver) {
		if cfg.SolverMode == "" {
			cfg.SolverMode = ModeCrossLayer.Name()
		} else if m, err := ParseMode(cfg.SolverMode); err == nil {
			cfg.SolverMode = m.Name()
		}
	} else {
		cfg.SolverBudget, cfg.SolverSeed, cfg.SolverMode = 0, 0, ""
	}
	if !cfg.WeightDuplication {
		cfg.Solver = "none"
		if cfg.TotalPEs == 0 && cfg.ExtraPEs > 0 && cfg.NoCCyclesPerHop <= 0 {
			x := cfg.ExtraPEs
			cfg.ExtraPEs = 0
			return cfg, x
		}
	}
	return cfg, 0
}

// compileCounted returns the cached compilation of (m, cfg), compiling
// at most once per key (single-flight), and whether the request was
// served from the cache (hit = true includes waiting on an in-flight
// compilation) — the input of the partial-hit accounting. Waiters honor
// ctx; the compilation itself runs to completion once started so late
// arrivals can still use it. With a cache limit set, finishing a
// compilation may evict the least-recently-used finished entries beyond
// the bound.
//
// cfg must have passed the request gate (Request.validate). Keys are
// normalized (normalizeCfg): a no-duplication ExtraPEs request compiles
// the x = 0 base once and returns a derived F-view of it. The Engine
// marks each compilation with its WithValidation setting before
// publishing it, so Compiled.timeline checks what it builds.
func (e *Engine) compileCounted(ctx context.Context, m *Model, cfg Config) (*Compiled, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	norm, extra := normalizeCfg(cfg)
	b, err := json.Marshal(norm)
	if err != nil {
		return nil, false, fmt.Errorf("clsacim: encoding cache key: %w", err)
	}
	key := m.Name + "\x00" + string(b)
	view := func(c *Compiled) *Compiled {
		if extra > 0 && c != nil {
			return c.withExtraPEs(extra)
		}
		return c
	}
	e.mu.Lock()
	ent, ok := e.cache[key]
	if ok {
		e.hits.Add(1)
		if ent.elem != nil {
			e.lru.MoveToFront(ent.elem)
		}
		e.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
		return view(ent.c), true, ent.err
	}
	e.misses.Add(1)
	ent = &compileEntry{key: key, ready: make(chan struct{})}
	ent.elem = e.lru.PushFront(ent)
	e.cache[key] = ent
	e.evictLocked()
	e.mu.Unlock()

	e.compiles.Add(1)
	// Close ready even if Compile panics (e.g. inside a custom solver):
	// a never-closed entry would block every later request for this key
	// forever once a recover() higher up keeps the process alive.
	defer func() {
		if ent.err == nil && ent.c == nil {
			ent.err = fmt.Errorf("clsacim: compiling %q panicked", m.Name)
		}
		e.mu.Lock()
		ent.done = true
		var keep *deps.CSR
		if ent.c != nil {
			keep = ent.c.depGraph.CSR
		}
		e.releaseGraphsLocked(ent, keep)
		// The in-flight guard may have held the cache over its bound
		// while this key compiled; re-run the scan now that the entry
		// is evictable.
		e.evictLocked()
		e.mu.Unlock()
		close(ent.ready)
	}()
	ent.c, ent.err = compile(m, norm, func(g *nn.Graph, sp *sets.Plan) (*deps.CSR, error) {
		return e.sharedCSR(ent, graphKey(m.Name, norm, sp), g, sp)
	})
	if ent.c != nil {
		ent.c.check = e.validate
	}
	return view(ent.c), false, ent.err
}

// graphKey encodes everything a Stage II CSR depends on: the model, the
// weight width and crossbar dims that fix its canonical graph and base
// layers, and every layer's exact Stage I grid (channel depth, row and
// column bounds). Each part is length-prefixed, so distinct inputs give
// distinct keys, and the tier's map compares keys in full.
func graphKey(model string, cfg Config, sp *sets.Plan) string {
	b := binary.AppendUvarint(nil, uint64(len(model)))
	b = append(b, model...)
	for _, v := range []int{cfg.WeightBits, cfg.PERows, cfg.PECols, len(sp.Layers)} {
		b = binary.AppendVarint(b, int64(v))
	}
	for i := range sp.Layers {
		ls := &sp.Layers[i]
		b = binary.AppendVarint(b, int64(ls.C))
		for _, bounds := range [2][]int{ls.RowBounds, ls.ColBounds} {
			b = binary.AppendUvarint(b, uint64(len(bounds)))
			for _, v := range bounds {
				b = binary.AppendVarint(b, int64(v))
			}
		}
	}
	return string(b)
}

// sharedCSR returns the graph tier's CSR for key, building it from
// (g, sp) at most once (single-flight), and records that ent holds it.
// A build that fails or panics leaves the tier, so a later compilation
// retries it; its waiters see the error.
func (e *Engine) sharedCSR(ent *compileEntry, key string, g *nn.Graph, sp *sets.Plan) (*deps.CSR, error) {
	e.mu.Lock()
	ge, ok := e.graphs[key]
	if !ok {
		ge = &graphEntry{key: key, ready: make(chan struct{})}
		e.graphs[key] = ge
	}
	if !slices.Contains(ent.graphs, ge) {
		ent.graphs = append(ent.graphs, ge)
		ge.refs++
	}
	e.mu.Unlock()
	if ok {
		e.graphHits.Add(1)
		<-ge.ready
		return ge.csr, ge.err
	}
	e.graphBuilds.Add(1)
	defer func() {
		if ge.err == nil && ge.csr == nil {
			ge.err = fmt.Errorf("clsacim: stage II panicked")
		}
		if ge.err != nil {
			e.mu.Lock()
			if e.graphs[key] == ge {
				delete(e.graphs, key)
			}
			e.mu.Unlock()
		}
		close(ge.ready)
	}()
	ge.csr, ge.err = buildCSR(g, sp)
	return ge.csr, ge.err
}

// releaseGraphsLocked drops ent's hold on every tier graph but the one
// whose CSR is keep (nil releases all), and removes a graph from the
// tier with its last holder. Callers hold e.mu; keep is read only by
// the goroutine that compiled ent, after every graph it took is ready.
func (e *Engine) releaseGraphsLocked(ent *compileEntry, keep *deps.CSR) {
	held := ent.graphs[:0]
	for _, ge := range ent.graphs {
		if keep != nil && ge.csr == keep {
			held = append(held, ge)
			continue
		}
		if ge.refs--; ge.refs == 0 && e.graphs[ge.key] == ge {
			delete(e.graphs, ge.key)
		}
	}
	clear(ent.graphs[len(held):]) // let released graphs be collected
	ent.graphs = held
}

// evictLocked drops least-recently-used finished entries until the
// cache respects the configured bound. In-flight compilations are
// skipped: evicting one would detach its waiters from the single-flight
// slot and recompile the same key concurrently. Callers hold e.mu.
func (e *Engine) evictLocked() {
	if e.cacheLimit <= 0 {
		return
	}
	for el := e.lru.Back(); el != nil && len(e.cache) > e.cacheLimit; {
		ent := el.Value.(*compileEntry)
		prev := el.Prev()
		if ent.done {
			delete(e.cache, ent.key)
			e.lru.Remove(el)
			ent.elem = nil
			e.releaseGraphsLocked(ent, nil)
			e.evictions.Add(1)
		}
		el = prev
	}
}

// requestCtx derives the context a request runs under: ctx bounded by
// the request's own deadline when TimeoutMillis is set. Values too
// large to represent as a time.Duration are clamped to the maximum
// rather than overflowing into an already-expired deadline. The
// returned cancel func must always be called.
func requestCtx(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	if req.TimeoutMillis > 0 {
		ms := req.TimeoutMillis
		if ms > math.MaxInt64/int64(time.Millisecond) {
			ms = math.MaxInt64 / int64(time.Millisecond)
		}
		return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	}
	return ctx, func() {}
}

// deadlineErr reports whether ctx is done or its deadline has already
// passed. The wall-clock comparison matters: context timers fire
// asynchronously and can lag a blown deadline by milliseconds, so a
// request whose deadline passed during its compilations must fail with
// context.DeadlineExceeded without waiting on timer delivery.
func deadlineErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// compileRequest passes the request through the gate and compiles its
// model (cached) under the request's effective configuration and
// deadline. hit reports whether the compilation came from the cache.
// The returned context carries the deadline for the caller's later
// steps; cancel must always be called.
func (e *Engine) compileRequest(ctx context.Context, req Request) (*Compiled, bool, context.Context, context.CancelFunc, error) {
	m, err := req.validate(e.base, nil)
	if err != nil {
		return nil, false, ctx, func() {}, err
	}
	ctx, cancel := requestCtx(ctx, req)
	c, hit, err := e.compileCounted(ctx, m, req.overlay(e.base))
	return c, hit, ctx, cancel, err
}

// Compile resolves the request's model and returns its (cached)
// compilation under the request's effective configuration.
func (e *Engine) Compile(ctx context.Context, req Request) (*Compiled, error) {
	c, _, ctx, cancel, err := e.compileRequest(ctx, req)
	defer cancel()
	if err != nil {
		return nil, err
	}
	// A compilation that ran past the request deadline still lands in
	// the cache for later requests, but this caller asked for a bound
	// and must see the expiry — same contract as Schedule/Evaluate.
	if err := deadlineErr(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// scheduleCounted is the step every request path runs on a compilation
// returned by compileCounted: fail on a blown deadline, count a partial
// hit, and schedule (Stage III/IV, built, checked and cached per
// canonical mode by Compiled.timeline).
//
// The partial-hit check races benignly with concurrent builders of the
// same timeline — a request that loses that race did wait on
// scheduling work, which is exactly what the counter measures.
func (e *Engine) scheduleCounted(ctx context.Context, comp *Compiled, hit bool, mode ScheduleMode) (*Report, error) {
	if err := deadlineErr(ctx); err != nil {
		return nil, err
	}
	if hit && !comp.hasTimeline(mode) {
		e.partialHits.Add(1)
	}
	return comp.Schedule(mode)
}

// Schedule compiles (cached) and schedules the request, returning the
// paper's per-configuration report.
func (e *Engine) Schedule(ctx context.Context, req Request) (*Report, error) {
	comp, hit, ctx, cancel, err := e.compileRequest(ctx, req)
	defer cancel()
	if err != nil {
		return nil, err
	}
	return e.scheduleCounted(ctx, comp, hit, req.Mode)
}

// Evaluate compiles and schedules the request and measures it against
// the paper's reference (layer-by-layer, no duplication, F = PEmin).
// Both compilations go through the Engine cache, so a sweep over
// mapping points compiles the shared baseline once.
func (e *Engine) Evaluate(ctx context.Context, req Request) (*Evaluation, error) {
	return e.evaluate(ctx, nil, req)
}

// EvaluateModel is Evaluate for a *Model held directly (e.g. built with
// Builder but not registered); req.Model is ignored. The compile cache
// is keyed by the model's Name, so distinct models sharing an Engine
// must carry distinct names.
func (e *Engine) EvaluateModel(ctx context.Context, m *Model, req Request) (*Evaluation, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrInvalidConfig)
	}
	return e.evaluate(ctx, m, req)
}

// baselineCfg derives the paper's reference configuration from an
// effective request config: layer-by-layer on F = PEmin without
// duplication.
func baselineCfg(cfg Config) Config {
	cfg.ExtraPEs = 0
	cfg.TotalPEs = 0
	cfg.WeightDuplication = false
	return cfg
}

// evaluate runs Evaluate for the model m, or for the one req names when
// m is nil.
func (e *Engine) evaluate(ctx context.Context, m *Model, req Request) (*Evaluation, error) {
	m, err := req.validate(e.base, m)
	if err != nil {
		return nil, err
	}
	ctx, cancel := requestCtx(ctx, req)
	defer cancel()
	cfg := req.overlay(e.base)
	baseComp, baseHit, err := e.compileCounted(ctx, m, baselineCfg(cfg))
	if err != nil {
		return nil, err
	}
	comp, hit, err := e.compileCounted(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	baseline, err := e.scheduleCounted(ctx, baseComp, baseHit, ModeLayerByLayer)
	if err != nil {
		return nil, err
	}
	result, err := e.scheduleCounted(ctx, comp, hit, req.Mode)
	if err != nil {
		return nil, err
	}
	e.evaluations.Add(1)
	return newEvaluation(baseline, result, comp), nil
}

// runPool runs fn(0..n-1) on the Engine's bounded worker pool.
func (e *Engine) runPool(n int, fn func(int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// EvaluateBatch evaluates requests concurrently on a worker pool
// bounded by WithWorkers (default GOMAXPROCS): each request runs
// Evaluate. Results are positionally aligned with reqs; per-request
// failures land in BatchResult.Err rather than aborting the batch. The
// returned error is non-nil only when ctx was cancelled, in which case
// unprocessed requests carry the context error.
//
// Every request's deadline clock starts when the batch starts, so a
// TimeoutMillis covers the time the request queues behind others. A
// blown deadline fails only that request's slot: a compilation, once
// started, runs to completion under single-flight, so co-batched
// requests sharing its key still use it. Duplicate keys within a batch
// compile once through the same cache, and the hit accounting is that
// of the same requests sent through Evaluate one by one.
func (e *Engine) EvaluateBatch(ctx context.Context, reqs []Request) ([]BatchResult, error) {
	out := make([]BatchResult, len(reqs))
	rctx := make([]context.Context, len(reqs))
	for i, req := range reqs {
		var cancel context.CancelFunc
		rctx[i], cancel = requestCtx(ctx, req)
		defer cancel()
	}
	e.runPool(len(reqs), func(i int) {
		out[i].Request = reqs[i]
		out[i].Evaluation, out[i].Err = e.Evaluate(rctx[i], reqs[i])
	})
	return out, ctx.Err()
}

// newEvaluation assembles the comparison metrics shared by Evaluate and
// Engine.Evaluate.
func newEvaluation(baseline, result *Report, comp *Compiled) *Evaluation {
	x := comp.TotalPEs() - comp.PEmin()
	return &Evaluation{
		Baseline:        baseline,
		Result:          result,
		Speedup:         metrics.Speedup(baseline.MakespanCycles, result.MakespanCycles),
		UtilizationGain: result.Utilization / baseline.Utilization,
		Eq3Speedup:      metrics.Eq3Speedup(result.Utilization, baseline.Utilization, comp.PEmin(), x),
	}
}
