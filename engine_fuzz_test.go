package clsacim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"clsacim/internal/models"
	"clsacim/internal/nn"
)

// randomModel returns the RandomCNN of the given seed registered under
// a seed-specific name, so every Engine of the process resolves the
// name to the same network.
func randomModel(t testing.TB, seed int64) string {
	t.Helper()
	name := fmt.Sprintf("fuzz-random-%d", seed)
	g, err := models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: 5, MaxInput: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Name: name, build: func() (*nn.Graph, error) { return g.Clone(), nil }}
	if err := RegisterModel(name, m); err != nil && !errors.Is(err, ErrDuplicateModel) {
		t.Fatal(err)
	}
	return name
}

// coherenceRequests decodes a fuzz input into an Engine cache limit
// (1-3) and up to 8 requests over tinybranchnet and one RandomCNN,
// varying the extra PEs, duplication, mode, solver (dp, or search on a
// tiny budget), Stage I granularity and NoC cost, and failing some
// compilations. Each request takes six bytes.
func coherenceRequests(t testing.TB, data []byte) (int, []Request) {
	if len(data) < 2 {
		return 1, nil
	}
	limit := 1 + int(data[0]%3)
	random := randomModel(t, int64(data[1]%8))
	var reqs []Request
	for b := data[2:]; len(b) >= 6 && len(reqs) < 8; b = b[6:] {
		req := Request{
			Model:             "tinybranchnet",
			Mode:              []ScheduleMode{ModeLayerByLayer, ModeWindow(2), ModeWindow(4), ModeCrossLayer}[b[2]%4],
			ExtraPEs:          int(b[1] % 9),
			WeightDuplication: b[1]&0x80 != 0,
			Config:            &Config{TargetSets: []int{0, 4, 9}[b[4]%3]},
		}
		if b[0]%2 == 1 {
			req.Model = random
		}
		if b[3]%2 == 1 {
			req.Solver, req.SolverBudget, req.SolverSeed = "search", 4, uint64(b[3])
		}
		if b[5]%2 == 1 {
			req.Config.NoCCyclesPerHop = 1.5
		}
		if b[5]&2 != 0 {
			req.TotalPEs = 1 // below PEmin: the compilation fails after its front end
		}
		reqs = append(reqs, req)
	}
	return limit, reqs
}

// evalView is everything an Evaluation answers, including the
// on-demand per-replica spans and per-PE activity of both reports.
type evalView struct {
	Baseline, Result   Report
	Spans              [2][]LayerSpan
	PEActive           [2][]int64
	Speedup, Gain, Eq3 float64
	Err                string
}

func viewOf(ev *Evaluation, err error) evalView {
	if err != nil {
		return evalView{Err: err.Error()}
	}
	v := evalView{Baseline: *ev.Baseline, Result: *ev.Result, Speedup: ev.Speedup, Gain: ev.UtilizationGain, Eq3: ev.Eq3Speedup}
	for i, r := range []*Report{ev.Baseline, ev.Result} {
		v.Spans[i], v.PEActive[i] = r.LayerSpans(), r.PEActive()
	}
	// Only the exported fields are the answer; the Engine-internal
	// pointers differ between Engines.
	v.Baseline.comp, v.Baseline.tl = nil, nil
	v.Result.comp, v.Result.tl = nil, nil
	return v
}

// oneShot answers req through the one-shot pipeline: Compile per
// configuration, with no cache, tier or F-view between the request and
// its answer.
func oneShot(req Request) (*Evaluation, error) {
	m, err := req.validate(Config{}, nil)
	if err != nil {
		return nil, err
	}
	cfg := req.overlay(Config{})
	base, err := Compile(m, baselineCfg(cfg))
	if err != nil {
		return nil, err
	}
	comp, err := Compile(m, cfg)
	if err != nil {
		return nil, err
	}
	baseline, err := base.Schedule(ModeLayerByLayer)
	if err != nil {
		return nil, err
	}
	result, err := comp.Schedule(req.Mode)
	if err != nil {
		return nil, err
	}
	return newEvaluation(baseline, result, comp), nil
}

// checkEvicted evicts every entry of an idle Engine and requires both
// tiers to be empty.
func checkEvicted(t testing.TB, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evictToLocked(0)
	if len(e.cache) != 0 || len(e.fronts.entries) != 0 || len(e.graphs.entries) != 0 {
		t.Errorf("fully evicted Engine holds %d entries, %d front ends, %d graphs",
			len(e.cache), len(e.fronts.entries), len(e.graphs.entries))
	}
}

// FuzzEngineCoherence: whatever mix of requests a bounded Engine
// serves, serially or in a batch, with entries evicted and their shared
// front ends and graphs released in between, every answer equals a
// fresh Engine's and the one-shot pipeline's, the tiers' reference
// counts match the live entries' uses after every request, and a fully
// evicted Engine holds no shared artifact.
func FuzzEngineCoherence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 0x84, 3, 0, 0, 0, 1, 0x88, 1, 1, 1, 1, 0, 0x82, 2, 0, 2, 0})
	f.Add([]byte{2, 5, 1, 0x86, 3, 1, 0, 1, 1, 4, 0, 0, 2, 0, 0, 0x83, 3, 3, 1, 1, 0, 0x85, 1, 0, 0, 0})
	f.Add([]byte{0, 2, 0, 0x84, 3, 0, 0, 0, 0, 0x84, 3, 0, 0, 2, 1, 0, 0, 0, 0, 3, 0, 0x82, 1, 1, 0, 0})
	// A coarse search whose first candidate's graph differs from the
	// final mapping's: the entry must release the first.
	f.Add([]byte{0, 1, 1, 0x83, 1, 49, 1, 0})
	f.Add([]byte{0, 7, 0, 0x80, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0x88, 3, 1, 1, 1, 1, 0x88, 3, 1, 1, 1,
		0, 0, 3, 0, 2, 1, 1, 0, 3, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		limit, reqs := coherenceRequests(t, data)
		if len(reqs) == 0 {
			return
		}
		ctx := context.Background()
		want := make([]evalView, len(reqs))
		for i, req := range reqs {
			want[i] = viewOf(oneShot(req))
			if got := viewOf(MustNew().Evaluate(ctx, req)); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("fresh Engine, request %d %+v:\n got %+v\nwant %+v", i, req, got, want[i])
			}
		}
		serial := MustNew(WithCacheLimit(limit))
		for i, req := range reqs {
			if got := viewOf(serial.Evaluate(ctx, req)); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("serial request %d %+v:\n got %+v\nwant %+v", i, req, got, want[i])
			}
			checkGraphTier(t, serial)
		}
		batch := MustNew(WithCacheLimit(limit), WithWorkers(3))
		for round := 0; round < 2; round++ {
			for _, e := range []*Engine{serial, batch} {
				res, err := e.EvaluateBatch(ctx, reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, br := range res {
					if got := viewOf(br.Evaluation, br.Err); !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("batch round %d request %d %+v:\n got %+v\nwant %+v", round, i, br.Request, got, want[i])
					}
				}
			}
		}
		for _, e := range []*Engine{serial, batch} {
			checkGraphTier(t, e)
			checkEvicted(t, e)
		}
	})
}

// TestEngineFrontEndTierImmutable runs concurrent batches over a few
// models, with evictions releasing and rebuilding shared front ends,
// and then requires every front end still in the tier to equal a fresh
// build: no stage after mapping.Analyze modifies the shared canonical
// graph or plan. Run it with -race.
func TestEngineFrontEndTierImmutable(t *testing.T) {
	var reqs []Request
	for _, model := range []string{"tinyconvnet", "tinybranchnet", "tinydwnet", randomModel(t, 3)} {
		for x := 0; x <= 4; x++ {
			for _, mode := range []ScheduleMode{ModeLayerByLayer, ModeCrossLayer} {
				reqs = append(reqs,
					Request{Model: model, Mode: mode, ExtraPEs: x, WeightDuplication: x > 0},
					Request{Model: model, Mode: mode, ExtraPEs: x + 1, WeightDuplication: true, Solver: "search", SolverBudget: 3,
						Config: &Config{NoCCyclesPerHop: 2}})
			}
		}
	}
	eng := MustNew(WithCacheLimit(12), WithWorkers(4))
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.EvaluateBatch(ctx, reqs)
			if err != nil {
				t.Error(err)
				return
			}
			for _, br := range res {
				if br.Err != nil {
					t.Errorf("%+v: %v", br.Request, br.Err)
				}
			}
		}()
	}
	wg.Wait()
	if s := eng.Stats(); s.FrontEndBuilds+s.FrontEndHits != s.Compiles {
		t.Errorf("front-end builds %d + hits %d != compiles %d", s.FrontEndBuilds, s.FrontEndHits, s.Compiles)
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if len(eng.fronts.entries) == 0 {
		t.Fatal("no front end left in the tier to compare")
	}
	for key, te := range eng.fronts.entries {
		m, err := lookupModel(graphModel(key))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := buildFrontEnd(m, Config{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(te.val, fresh) {
			t.Errorf("%s: the shared front end differs from a fresh build", graphModel(key))
		}
	}
}
