package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"clsacim"
	"clsacim/client"
	"clsacim/serve"
)

// startDaemon runs a real serve.Server on a loopback listener and
// returns a client pointed at it, built with opts, and the count of
// HTTP requests the daemon received.
func startDaemon(t *testing.T, opts ...client.Option) (*client.Client, *atomic.Int64) {
	t.Helper()
	eng, err := clsacim.New(clsacim.WithCacheLimit(8))
	if err != nil {
		t.Fatal(err)
	}
	h, err := serve.New(eng, serve.WithLogger(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, &calls
}

func TestClientRoundTrip(t *testing.T) {
	c, _ := startDaemon(t)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	ev, err := c.Evaluate(ctx, clsacim.Request{
		Model: "tinyconvnet", Mode: clsacim.ModeCrossLayer,
		ExtraPEs: 2, WeightDuplication: true,
	})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if ev.Speedup < 1 || ev.Result.Mode != "xinf" {
		t.Errorf("evaluation = %+v, want a real xinf result", ev)
	}

	reqs := []clsacim.Request{
		{Model: "tinyconvnet", Mode: clsacim.ModeCrossLayer, ExtraPEs: 1, WeightDuplication: true},
		{Model: "tinyconvnet", Mode: clsacim.ModeLayerByLayer},
	}
	results, err := c.EvaluateBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, r := range results {
		if r.Error != "" || r.Evaluation == nil {
			t.Errorf("batch result %d = %+v, want success", i, r)
		}
		if r.Request.Model != reqs[i].Model || r.Request.ExtraPEs != reqs[i].ExtraPEs {
			t.Errorf("batch result %d echoes request %+v, want %+v", i, r.Request, reqs[i])
		}
	}

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	found := false
	for _, m := range models.Models {
		if m == "tinyconvnet" {
			found = true
		}
	}
	if !found {
		t.Errorf("models = %v, want tinyconvnet listed", models.Models)
	}

	// A new mode on an already-cached compilation takes the incremental
	// path: the compile is a cache hit that still runs Stage III/IV,
	// which the stats expose as a partial hit.
	if _, err := c.Evaluate(ctx, clsacim.Request{
		Model: "tinyconvnet", Mode: clsacim.ModeCrossLayer,
	}); err != nil {
		t.Fatalf("evaluate (cached compile): %v", err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Engine.Evaluations != 4 {
		t.Errorf("engine evaluations = %d, want 4", stats.Engine.Evaluations)
	}
	if stats.Engine.PartialHits != 1 {
		t.Errorf("engine partial hits = %d, want 1", stats.Engine.PartialHits)
	}
	if stats.Server.BatchItems != 2 {
		t.Errorf("batch items = %d, want 2", stats.Server.BatchItems)
	}
}

func TestClientTypedErrors(t *testing.T) {
	c, _ := startDaemon(t)
	ctx := context.Background()

	_, err := c.Evaluate(ctx, clsacim.Request{Model: "no-such-net"})
	if !errors.Is(err, clsacim.ErrUnknownModel) {
		t.Errorf("unknown model err = %v, want errors.Is ErrUnknownModel", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Errorf("err = %v, want *APIError with status 404", err)
	}

	// Deterministic server-side timeout: a sleeping solver pins the
	// compile well past the 1 ms deadline, and the resulting 504 must
	// map back to context.DeadlineExceeded.
	solverName := fmt.Sprintf("test-client-sleeps-%d", time.Now().UnixNano())
	if err := clsacim.RegisterSolver(solverName, func(layers []clsacim.SolverLayer, totalPEs, minPEs int) ([]int, error) {
		time.Sleep(250 * time.Millisecond)
		d := make([]int, len(layers))
		for i := range d {
			d[i] = 1
		}
		return d, nil
	}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Evaluate(ctx, clsacim.Request{
		Model: "tinyconvnet", ExtraPEs: 1, WeightDuplication: true,
		Solver: solverName, TimeoutMillis: 1,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timed-out err = %v, want errors.Is context.DeadlineExceeded", err)
	}

	// An invalid Config is a permanent 400: even a retrying client
	// sends it exactly once.
	rc, calls := startDaemon(t, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1,
	}))
	_, err = rc.Evaluate(ctx, clsacim.Request{Model: "tinyconvnet", Config: &clsacim.Config{PERows: -5}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Temporary() {
		t.Errorf("invalid config err = %v, want a permanent 400 *APIError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("daemon saw %d attempts for a 400, want 1", n)
	}
}

func TestClientWrongPath404IsNotUnknownModel(t *testing.T) {
	// A misconfigured base URL hits the daemon's unknown-endpoint 404
	// (no error code); that must stay a bare *APIError, not satisfy
	// errors.Is(err, clsacim.ErrUnknownModel) — a sweep tool skipping
	// "unknown models" would otherwise silently skip everything.
	eng, err := clsacim.New()
	if err != nil {
		t.Fatal(err)
	}
	h, err := serve.New(eng, serve.WithLogger(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL + "/api") // daemon is mounted at root
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Evaluate(context.Background(), clsacim.Request{Model: "tinyconvnet"})
	if err == nil {
		t.Fatal("evaluate against a wrong path succeeded")
	}
	if errors.Is(err, clsacim.ErrUnknownModel) {
		t.Errorf("wrong-path 404 satisfies ErrUnknownModel: %v", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 || apiErr.Code != "" {
		t.Errorf("err = %v, want a bare *APIError with status 404 and no code", err)
	}
}

func TestClientRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "127.0.0.1:8080", "/just/a/path"} {
		if _, err := client.New(bad); err == nil {
			t.Errorf("New(%q) accepted a base URL without scheme+host", bad)
		}
	}
}
