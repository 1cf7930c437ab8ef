package clsacim

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"clsacim/internal/deps"
)

// tierSweep is the zoo sweep of the graph-tier tests: every model at
// the baseline and at wdup +4, +8, +16 and +32 extra PEs.
func tierSweep() []Request {
	var reqs []Request
	for _, model := range Models() {
		reqs = append(reqs, Request{Model: model})
		for _, x := range []int{4, 8, 16, 32} {
			reqs = append(reqs, Request{
				Model: model, Mode: ModeCrossLayer, ExtraPEs: x, WeightDuplication: true,
			})
		}
	}
	return reqs
}

// graphModel decodes the model name that prefixes a front-end or
// graph-tier key.
func graphModel(key string) string {
	n, k := binary.Uvarint([]byte(key))
	return key[k : k+int(n)]
}

// checkGraphTier asserts the lifetime invariants of both tiers on an
// idle Engine (checkTier) and returns the number of graphs per model.
func checkGraphTier(t *testing.T, e *Engine) map[string]int {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	checkTier(t, e, "front end", &e.fronts,
		func(ent *compileEntry) []*tierEntry[frontEnd] { return ent.fronts },
		func(c *Compiled) frontEnd { return c.frontEnd })
	return checkTier(t, e, "graph", &e.graphs,
		func(ent *compileEntry) []*tierEntry[*deps.CSR] { return ent.graphs },
		func(c *Compiled) *deps.CSR { return c.depGraph.CSR })
}

// checkTier asserts one tier's lifetime invariants: every artifact is
// held by a cached entry and its count of holders is exact, each entry
// holds only the artifact its compilation uses, and so the tier never
// holds more artifacts than there are entries. It returns the number
// of artifacts per model. Callers hold e.mu.
func checkTier[T comparable](t *testing.T, e *Engine, name string, tr *tier[T],
	held func(*compileEntry) []*tierEntry[T], uses func(*Compiled) T) map[string]int {
	t.Helper()
	holders := make(map[*tierEntry[T]]int)
	for key, ent := range e.cache {
		if len(held(ent)) > 1 {
			t.Errorf("entry %q holds %d %ss", key, len(held(ent)), name)
		}
		for _, te := range held(ent) {
			if ent.c == nil || uses(ent.c) != te.val {
				t.Errorf("entry %q holds a %s its compilation does not use", key, name)
			}
			holders[te]++
		}
	}
	perModel := make(map[string]int)
	for key, te := range tr.entries {
		if te.refs < 1 || holders[te] != te.refs {
			t.Errorf("%s of %q: refs %d, held by %d entries", name, graphModel(key), te.refs, holders[te])
		}
		perModel[graphModel(key)]++
	}
	if len(tr.entries) > len(e.cache) {
		t.Errorf("%s tier holds %d artifacts for %d cache entries", name, len(tr.entries), len(e.cache))
	}
	return perModel
}

// TestEngineGraphTierSweep: a model's baseline and wdup variants share
// one front end, and at fine granularity one Stage I grid, so the 35
// compilations of the zoo sweep build 7 front ends and 7 Stage II
// graphs, one per model, and take the rest from the tiers.
func TestEngineGraphTierSweep(t *testing.T) {
	eng := MustNew()
	results, err := eng.EvaluateBatch(context.Background(), tierSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%+v: %v", res.Request, res.Err)
		}
	}
	n := int64(len(Models()))
	s := eng.Stats()
	if s.Compiles != 5*n || s.GraphBuilds != n || s.GraphHits != 4*n {
		t.Errorf("compiles %d, graph builds %d, graph hits %d; want %d, %d, %d",
			s.Compiles, s.GraphBuilds, s.GraphHits, 5*n, n, 4*n)
	}
	if s.FrontEndBuilds != n || s.FrontEndHits != 4*n {
		t.Errorf("front-end builds %d, hits %d; want %d, %d", s.FrontEndBuilds, s.FrontEndHits, n, 4*n)
	}
	for model, graphs := range checkGraphTier(t, eng) {
		if graphs != 1 {
			t.Errorf("%s: %d graphs in the tier, want 1", model, graphs)
		}
	}
}

// TestGraphTierMatchesFreshBuild is the tier's equivalence oracle: every
// compilation's shared CSR must equal a fresh Stage II build over that
// compilation's own Stage I plan. At fine granularity the baseline and
// wdup+8/+32 share one CSR, but not its dominant view; at 26 sets duplication rounds the set
// targets, the grids differ, and the two must not share.
func TestGraphTierMatchesFreshBuild(t *testing.T) {
	ctx := context.Background()
	compileFresh := func(t *testing.T, eng *Engine, req Request) *Compiled {
		t.Helper()
		c, err := eng.Compile(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := deps.Build(c.graph, c.setsPlan)
		if err != nil {
			t.Fatal(err)
		}
		if !c.depGraph.CSR.Equal(fresh.CSR) {
			t.Errorf("%s x=%d wdup=%v: tier CSR differs from a fresh build",
				req.Model, req.ExtraPEs, req.WeightDuplication)
		}
		return c
	}
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			eng := MustNew()
			base := compileFresh(t, eng, Request{Model: model})
			for _, x := range []int{8, 32} {
				c := compileFresh(t, eng, Request{Model: model, ExtraPEs: x, WeightDuplication: true})
				if c.depGraph.CSR != base.depGraph.CSR {
					t.Errorf("wdup+%d does not share the baseline's CSR", x)
				}
				if c.depGraph.Plan != c.setsPlan || c.setsPlan == base.setsPlan {
					t.Errorf("wdup+%d does not keep its own Stage I plan", x)
				}
				// The dominant view follows the plan's duplication, so
				// the compilations sharing the CSR each get their own.
				dv, bv := c.depGraph.Dominant(), base.depGraph.Dominant()
				if slices.Equal(dv.PredOff, bv.PredOff) && slices.Equal(dv.Pred, bv.Pred) {
					t.Errorf("wdup+%d has the baseline's dominant view", x)
				}
			}
			if s := eng.Stats(); s.GraphBuilds != 1 || s.GraphHits != 2 {
				t.Errorf("graph builds %d, hits %d; want 1, 2", s.GraphBuilds, s.GraphHits)
			}
		})
	}
	t.Run("coarse", func(t *testing.T) {
		eng := MustNew(WithConfig(Config{TargetSets: 26}))
		base := compileFresh(t, eng, Request{Model: "tinyyolov4"})
		dup := compileFresh(t, eng, Request{Model: "tinyyolov4", ExtraPEs: 8, WeightDuplication: true})
		if base.depGraph.CSR == dup.depGraph.CSR || base.depGraph.CSR.Equal(dup.depGraph.CSR) {
			t.Error("baseline and wdup+8 at 26 sets share a CSR, but their grids differ")
		}
		if s := eng.Stats(); s.GraphBuilds != 2 || s.GraphHits != 0 {
			t.Errorf("graph builds %d, hits %d; want 2, 0", s.GraphBuilds, s.GraphHits)
		}
	})
}

// TestEngineGraphTierEviction: the tier keeps a graph only while a
// cached entry holds it, so evicting every entry of a model drops its
// graph and the tier never outgrows the cache.
func TestEngineGraphTierEviction(t *testing.T) {
	eng := MustNew(WithCacheLimit(2))
	ctx := context.Background()
	models := []string{"tinyconvnet", "tinybranchnet", "tinydwnet"}
	for round := 0; round < 2; round++ {
		for _, model := range models {
			for _, req := range []Request{
				{Model: model},
				{Model: model, Mode: ModeCrossLayer, ExtraPEs: 2, WeightDuplication: true},
			} {
				if _, err := eng.Evaluate(ctx, req); err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				checkGraphTier(t, eng)
			}
			// The limit of 2 now keeps only this model's baseline and
			// wdup entries, so every other model's graph has left the
			// tier with its last entry.
			graphs := checkGraphTier(t, eng)
			for _, other := range models {
				if want := btoi(other == model); graphs[other] != want {
					t.Errorf("round %d, after %s: %d graphs of %s, want %d",
						round, model, graphs[other], other, want)
				}
			}
		}
	}
	s := eng.Stats()
	if s.Evictions == 0 || s.GraphBuilds != int64(2*len(models)) {
		t.Errorf("evictions %d, graph builds %d; want > 0 and %d (one per model per round)",
			s.Evictions, s.GraphBuilds, 2*len(models))
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestEngineGraphTierConcurrent drives the tier from many goroutines at
// once while a small cache limit evicts entries mid-batch: every result
// must match a serial, unbounded engine's, and the tier's holder counts
// must come out exact.
func TestEngineGraphTierConcurrent(t *testing.T) {
	var reqs []Request
	for _, model := range []string{"tinyconvnet", "tinybranchnet"} {
		for x := 1; x <= 6; x++ {
			reqs = append(reqs, Request{Model: model, Mode: ModeCrossLayer, ExtraPEs: x, WeightDuplication: true})
		}
	}
	reqs = append(reqs, reqs...)
	ctx := context.Background()
	serial := MustNew()
	want := make([]int64, len(reqs))
	for i, req := range reqs {
		ev, err := serial.Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev.Result.MakespanCycles
	}
	eng := MustNew(WithCacheLimit(3), WithWorkers(8))
	results, err := eng.EvaluateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%+v: %v", res.Request, res.Err)
		}
		if got := res.Evaluation.Result.MakespanCycles; got != want[i] {
			t.Errorf("%+v: makespan %d, serial %d", res.Request, got, want[i])
		}
	}
	checkGraphTier(t, eng)
	if s := eng.Stats(); s.GraphBuilds+s.GraphHits != s.Compiles {
		t.Errorf("graph builds %d + hits %d != compiles %d", s.GraphBuilds, s.GraphHits, s.Compiles)
	}
}
