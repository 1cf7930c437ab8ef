package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clsacim"
)

// newTestServer builds a Server around a fresh engine; the engine is
// returned for direct Stats assertions.
func newTestServer(t *testing.T, engOpts []clsacim.Option, srvOpts ...Option) (*Server, *clsacim.Engine) {
	t.Helper()
	eng, err := clsacim.New(engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srvOpts = append(srvOpts, WithLogger(t.Logf))
	s, err := New(eng, srvOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// doJSON runs one request against the handler and decodes the JSON
// response body into dst (skipped when dst is nil).
func doJSON(t *testing.T, h http.Handler, method, path, body string, dst any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if dst != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func TestEvaluateHappyPath(t *testing.T) {
	s, eng := newTestServer(t, nil)
	var ev Evaluation
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate",
		`{"model": "tinyconvnet", "mode": "xinf", "extra_pes": 2, "weight_duplication": true}`, &ev)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if ev.Result.Model != "tinyconvnet" || ev.Result.Mode != "xinf" {
		t.Errorf("result identifies as (%q, %q)", ev.Result.Model, ev.Result.Mode)
	}
	if ev.Baseline.Mode != "lbl" {
		t.Errorf("baseline mode = %q, want lbl", ev.Baseline.Mode)
	}
	if ev.Speedup < 1 {
		t.Errorf("speedup = %v, want >= 1", ev.Speedup)
	}
	if ev.Result.Utilization <= 0 || ev.Result.Utilization > 1 {
		t.Errorf("utilization = %v outside (0, 1]", ev.Result.Utilization)
	}
	if ev.Result.F != ev.Result.PEMin+2 {
		t.Errorf("F = %d, want PEmin+2 = %d", ev.Result.F, ev.Result.PEMin+2)
	}
	if st := eng.Stats(); st.Evaluations != 1 {
		t.Errorf("engine evaluations = %d, want 1", st.Evaluations)
	}
}

func TestEvaluateMalformedJSON(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for name, body := range map[string]string{
		"syntax":                 `{"model": `,
		"unknown field":          `{"model": "tinyconvnet", "bogus_field": 1}`,
		"retired allow_degraded": `{"model":"tinyconvnet","allow_degraded":true}`,
		"wrong type":             `{"model": 7}`,
		"trailing data":          `{"model": "tinyconvnet"} {"model": "tinyconvnet"}`,
		"empty body":             ``,
	} {
		var er ErrorResponse
		rec := doJSON(t, s, http.MethodPost, "/v1/evaluate", body, &er)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
		if er.Error == "" {
			t.Errorf("%s: missing error message", name)
		}
	}
}

func TestEvaluateUnknownModel(t *testing.T) {
	s, _ := newTestServer(t, nil)
	var er ErrorResponse
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate", `{"model": "no-such-net"}`, &er)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(er.Error, "unknown model") {
		t.Errorf("error = %q, want mention of unknown model", er.Error)
	}
	if er.Code != CodeUnknownModel {
		t.Errorf("code = %q, want %q", er.Code, CodeUnknownModel)
	}
}

func TestUnknownEndpointIsJSON404WithoutCode(t *testing.T) {
	// Unknown paths answer in the same envelope as everything else but
	// carry no code: a wrong base URL must not look like an unknown
	// model to the typed client.
	s, _ := newTestServer(t, nil)
	var er ErrorResponse
	rec := doJSON(t, s, http.MethodGet, "/v2/evaluate", "", &er)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if er.Error == "" || er.Code != "" {
		t.Errorf("envelope = %+v, want a message and no code", er)
	}
}

func TestEvaluateUnknownSolverIsBadRequest(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate",
		`{"model": "tinyconvnet", "solver": "no-such-solver"}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

func TestEvaluateInvalidValuesAreBadRequest(t *testing.T) {
	// Validation failures are the client's fault: 400, never 500, and
	// never a result for a different configuration.
	s, eng := newTestServer(t, nil)
	for name, body := range map[string]string{
		"empty model":        `{"mode": "xinf"}`,
		"negative extra":     `{"model": "tinyconvnet", "extra_pes": -1}`,
		"negative total":     `{"model": "tinyconvnet", "total_pes": -4}`,
		"negative timeout":   `{"model": "tinyconvnet", "timeout_ms": -1}`,
		"config pe_rows":     `{"model": "tinyconvnet", "config": {"pe_rows": -5}}`,
		"config tmvm":        `{"model": "tinyconvnet", "config": {"tmvm_nanos": -4}}`,
		"config noc":         `{"model": "tinyconvnet", "config": {"noc_cycles_per_hop": -1}}`,
		"config target_sets": `{"model": "tinyconvnet", "config": {"target_sets": -4}}`,
	} {
		var er ErrorResponse
		rec := doJSON(t, s, http.MethodPost, "/v1/evaluate", body, &er)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
		if er.Error == "" {
			t.Errorf("%s: missing error message", name)
		}
	}
	if st := eng.Stats(); st.Compiles != 0 {
		t.Errorf("invalid requests compiled %d times, want 0", st.Compiles)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rec := doJSON(t, s, http.MethodGet, "/v1/evaluate", "", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
}

func TestRequestTimeoutExpires(t *testing.T) {
	// A compilation pinned (via a sleeping solver) well past the 1 ms
	// deadline must fail with 504, not hang and not return a partial
	// result. The sleep makes the race deterministic: the engine's
	// post-compile deadline check always runs long after the timer
	// fired.
	solverName := fmt.Sprintf("test-serve-sleeps-%d", time.Now().UnixNano())
	err := clsacim.RegisterSolver(solverName, func(layers []clsacim.SolverLayer, totalPEs, minPEs int) ([]int, error) {
		time.Sleep(250 * time.Millisecond)
		d := make([]int, len(layers))
		for i := range d {
			d[i] = 1
		}
		return d, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, nil)
	var er ErrorResponse
	body := fmt.Sprintf(`{"model": "tinyconvnet", "extra_pes": 1, "weight_duplication": true, "solver": %q, "timeout_ms": 1}`, solverName)
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate", body, &er)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("error = %q, want a deadline message", er.Error)
	}
}

func TestBatchHappyPathAndPartialFailure(t *testing.T) {
	s, _ := newTestServer(t, nil)
	body := `{"requests": [
		{"model": "tinyconvnet", "mode": "xinf", "extra_pes": 1, "weight_duplication": true},
		{"model": "no-such-net"},
		{"model": "tinyconvnet", "mode": "lbl"}
	]}`
	var resp BatchResponse
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate/batch", body, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || r.Evaluation == nil || r.Evaluation.Speedup < 1 {
		t.Errorf("result 0 = %+v, want a successful evaluation", r)
	}
	if r := resp.Results[1]; r.Evaluation != nil || !strings.Contains(r.Error, "unknown model") {
		t.Errorf("result 1 = %+v, want an unknown-model error", r)
	}
	if r := resp.Results[2]; r.Error != "" || r.Evaluation == nil {
		t.Errorf("result 2 = %+v, want a successful evaluation", r)
	}
	if m := resp.Results[1].Request.Model; m != "no-such-net" {
		t.Errorf("results are not positionally aligned: result 1 echoes model %q", m)
	}
}

func TestBatchValidatesItems(t *testing.T) {
	// The batch endpoint must apply the same request validation as the
	// single endpoint: a shape /v1/evaluate rejects with 4xx may not
	// silently evaluate to a result for a different configuration.
	s, eng := newTestServer(t, nil)
	body := `{"requests": [
		{"model": "tinyconvnet", "total_pes": -4},
		{"model": "tinyconvnet", "timeout_ms": -1},
		{"model": "tinyconvnet"},
		{"model": "tinyconvnet", "config": {"pe_rows": -5}}
	]}`
	var resp BatchResponse
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate/batch", body, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if r := resp.Results[0]; r.Evaluation != nil || !strings.Contains(r.Error, "TotalPEs") {
		t.Errorf("result 0 = %+v, want a TotalPEs validation error", r)
	}
	if r := resp.Results[1]; r.Evaluation != nil || !strings.Contains(r.Error, "TimeoutMillis") {
		t.Errorf("result 1 = %+v, want a TimeoutMillis validation error", r)
	}
	if r := resp.Results[2]; r.Error != "" || r.Evaluation == nil {
		t.Errorf("result 2 = %+v, want the valid item evaluated", r)
	}
	if r := resp.Results[3]; r.Evaluation != nil || !strings.Contains(r.Error, "PERows") {
		t.Errorf("result 3 = %+v, want a PERows validation error", r)
	}
	if st := eng.Stats(); st.Evaluations != 1 || st.CacheHits+st.CacheMisses != 2 {
		t.Errorf("engine stats = %+v, want 1 evaluation and 2 cache lookups (invalid items withheld)", st)
	}
}

func TestBodyOverLimitIs413(t *testing.T) {
	// Oversized bodies must be 413 (split and retry), not 400
	// (malformed) — clients treat the two differently. Needs a real
	// server: MaxBytesReader's error surfaces through the connection.
	s, _ := newTestServer(t, nil, WithMaxBodyBytes(512))
	ts := httptest.NewServer(s)
	defer ts.Close()
	big := fmt.Sprintf(`{"requests": [%s]}`,
		strings.Repeat(`{"model": "tinyconvnet"},`, 100)+`{"model": "tinyconvnet"}`)
	resp, err := http.Post(ts.URL+"/v1/evaluate/batch", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 413 (body %s)", resp.StatusCode, b)
	}
}

func TestBatchTooLarge(t *testing.T) {
	s, _ := newTestServer(t, nil, WithMaxBatch(2))
	body := `{"requests": [{"model": "tinyconvnet"}, {"model": "tinyconvnet"}, {"model": "tinyconvnet"}]}`
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate/batch", body, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", rec.Code, rec.Body)
	}
}

func TestBatchContextCancellation(t *testing.T) {
	// A client that disconnects mid-batch cancels the request context;
	// every unprocessed item must carry the cancellation instead of
	// evaluating against a dead connection.
	s, _ := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := `{"requests": [{"model": "tinyconvnet"}, {"model": "tinyconvnet", "extra_pes": 1}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate/batch", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Evaluation != nil || !strings.Contains(r.Error, context.Canceled.Error()) {
			t.Errorf("result %d = %+v, want a context cancellation error", i, r)
		}
	}
}

func TestStatsPartialHits(t *testing.T) {
	// /v1/stats must separate full cache hits from partial hits — hits
	// that reused a compilation but still ran Stage III/IV for a mode
	// whose timeline was not cached yet.
	s, eng := newTestServer(t, nil)
	eval := func() {
		t.Helper()
		rec := doJSON(t, s, http.MethodPost, "/v1/evaluate",
			`{"model": "tinyconvnet", "mode": "xinf"}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("evaluate: status %d, body %s", rec.Code, rec.Body)
		}
	}
	// First evaluation compiles the key once; the variant probe of the
	// same key is a hit that still has to schedule xinf — one partial.
	eval()
	var st StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &st)
	if st.Engine.PartialHits != 1 || st.Engine.CacheHits != 1 {
		t.Errorf("after first evaluation: partial_hits=%d cache_hits=%d, want 1/1",
			st.Engine.PartialHits, st.Engine.CacheHits)
	}
	// The identical request serves both timelines from cache: hits
	// grow, partial hits don't.
	eval()
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &st)
	if st.Engine.PartialHits != 1 || st.Engine.CacheHits != 3 {
		t.Errorf("after repeat: partial_hits=%d cache_hits=%d, want 1/3",
			st.Engine.PartialHits, st.Engine.CacheHits)
	}
	if es := eng.Stats(); es.PartialHits != st.Engine.PartialHits {
		t.Errorf("wire partial_hits=%d, engine says %d", st.Engine.PartialHits, es.PartialHits)
	}
}

func TestStreamHappyPathAndStats(t *testing.T) {
	// One streamed evaluation over the wire, then its footprint in
	// /v1/stats: engine counters plus the stream block snapshotting the
	// last run's throughput and p99.
	s, eng := newTestServer(t, nil)

	// Before any stream has run the stats payload must omit the block.
	var before StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &before)
	if before.Stream != nil {
		t.Fatalf("stream stats present before any stream ran: %+v", before.Stream)
	}
	if before.Engine.StreamEvaluations != 0 || before.Engine.StreamInferences != 0 {
		t.Fatalf("engine stream counters nonzero at start: %+v", before.Engine)
	}

	var resp StreamResponse
	rec := doJSON(t, s, http.MethodPost, "/v1/stream",
		`{"models": [{"model": "tinyconvnet"}], "inferences": 4, "mode": "xinf",
		  "arrival": {"kind": "closed", "concurrency": 2}}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if resp.Inferences != 4 || len(resp.Jobs) != 4 {
		t.Fatalf("served %d inferences with %d jobs, want 4/4", resp.Inferences, len(resp.Jobs))
	}
	if resp.ThroughputPerSec <= 0 || resp.Latency.P99Nanos <= 0 {
		t.Fatalf("degenerate stream metrics: %+v", resp)
	}
	if len(resp.PerModel) != 1 || resp.PerModel[0].Model != "tinyconvnet" {
		t.Fatalf("per-model results = %+v", resp.PerModel)
	}
	if st := eng.Stats(); st.StreamEvaluations != 1 || st.StreamInferences != 4 {
		t.Errorf("engine stream counters = %d/%d, want 1/4", st.StreamEvaluations, st.StreamInferences)
	}

	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Engine.StreamEvaluations != 1 || stats.Engine.StreamInferences != 4 {
		t.Errorf("wire engine stream counters = %d/%d, want 1/4",
			stats.Engine.StreamEvaluations, stats.Engine.StreamInferences)
	}
	if stats.Stream == nil {
		t.Fatal("stream block missing from stats after a streamed evaluation")
	}
	if stats.Stream.Evaluations != 1 || stats.Stream.Inferences != 4 {
		t.Errorf("stream block counters = %+v, want 1 evaluation / 4 inferences", stats.Stream)
	}
	if stats.Stream.LastThroughputPerSec != resp.ThroughputPerSec {
		t.Errorf("last throughput = %g, want %g", stats.Stream.LastThroughputPerSec, resp.ThroughputPerSec)
	}
	if stats.Stream.LastP99Nanos != resp.Latency.P99Nanos {
		t.Errorf("last p99 = %g, want %g", stats.Stream.LastP99Nanos, resp.Latency.P99Nanos)
	}
	if len(stats.Stream.LastModels) != 1 || stats.Stream.LastModels[0] != "tinyconvnet" {
		t.Errorf("last models = %v, want [tinyconvnet]", stats.Stream.LastModels)
	}
}

func TestStreamRejectsInvalidRequests(t *testing.T) {
	s, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown model", `{"models": [{"model": "no-such-net"}], "inferences": 1}`, http.StatusNotFound},
		{"no inferences", `{"models": [{"model": "tinyconvnet"}]}`, http.StatusBadRequest},
		{"bad arrival kind", `{"models": [{"model": "tinyconvnet"}], "inferences": 1,
			"arrival": {"kind": "zipf"}}`, http.StatusBadRequest},
		{"malformed", `{"models": `, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er ErrorResponse
		rec := doJSON(t, s, http.MethodPost, "/v1/stream", tc.body, &er)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body)
		}
		if er.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
}

func TestModelsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	var resp ModelsResponse
	rec := doJSON(t, s, http.MethodGet, "/v1/models", "", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !contains(resp.Models, "tinyyolov4") || !contains(resp.Models, "vgg16") {
		t.Errorf("models = %v, want the paper networks listed", resp.Models)
	}
	if !contains(resp.Solvers, "dp") {
		t.Errorf("solvers = %v, want dp listed", resp.Solvers)
	}
	if len(resp.Modes) == 0 {
		t.Error("modes list is empty")
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rec := doJSON(t, s, http.MethodGet, "/healthz", "", nil)
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body)
	}
}

func TestStatsReportsLRUEviction(t *testing.T) {
	// A bounded engine under a model-variant sweep: the cache must hold
	// at most the limit, count every eviction, and keep serving
	// correct results; re-requesting an evicted key recompiles.
	const limit = 2
	s, eng := newTestServer(t, []clsacim.Option{clsacim.WithCacheLimit(limit)})
	const variants = 6
	for x := 1; x <= variants; x++ {
		body := fmt.Sprintf(`{"model": "tinyconvnet", "mode": "xinf", "extra_pes": %d, "weight_duplication": true}`, x)
		if rec := doJSON(t, s, http.MethodPost, "/v1/evaluate", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("variant x=%d: status %d, body %s", x, rec.Code, rec.Body)
		}
	}
	var stats StatsResponse
	if rec := doJSON(t, s, http.MethodGet, "/v1/stats", "", &stats); rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	es := stats.Engine
	if es.CacheLimit != limit {
		t.Errorf("cache_limit = %d, want %d", es.CacheLimit, limit)
	}
	if es.CachedEntries > limit {
		t.Errorf("cached_entries = %d exceeds limit %d", es.CachedEntries, limit)
	}
	// One shared baseline + one compile per variant; everything beyond
	// the limit was evicted.
	wantCompiles := int64(variants + 1)
	if es.Compiles != wantCompiles {
		t.Errorf("compiles = %d, want %d", es.Compiles, wantCompiles)
	}
	wantEvictions := wantCompiles - limit
	if es.Evictions != wantEvictions {
		t.Errorf("cache_evictions = %d, want %d", es.Evictions, wantEvictions)
	}
	if stats.Server.Requests == 0 || stats.Server.BatchItems != 0 {
		t.Errorf("server stats = %+v, want requests counted and no batch items", stats.Server)
	}

	// The baseline (x=0) was evicted during the sweep; re-evaluating
	// any variant must transparently recompile it.
	before := eng.Stats().Compiles
	if rec := doJSON(t, s, http.MethodPost, "/v1/evaluate",
		`{"model": "tinyconvnet", "mode": "xinf", "extra_pes": 1, "weight_duplication": true}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("re-request: status %d", rec.Code)
	}
	if after := eng.Stats().Compiles; after <= before {
		t.Errorf("re-requesting evicted keys did not recompile (compiles %d -> %d)", before, after)
	}
}

func TestConcurrentEvaluateSharesOneCompile(t *testing.T) {
	// The singleflight property over the wire: N concurrent identical
	// requests through a real HTTP server compile the key once.
	s, eng := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
				bytes.NewReader([]byte(`{"model": "tinyconvnet", "mode": "xinf", "extra_pes": 3, "weight_duplication": true}`)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := eng.Stats()
	// Two keys total: the shared lbl baseline and the requested point.
	if st.Compiles != 2 {
		t.Errorf("compiles = %d, want 2 (singleflight)", st.Compiles)
	}
	if st.Evaluations != n {
		t.Errorf("evaluations = %d, want %d", st.Evaluations, n)
	}
}

func TestErrorsAreCounted(t *testing.T) {
	s, _ := newTestServer(t, nil)
	doJSON(t, s, http.MethodPost, "/v1/evaluate", `{"model": "no-such-net"}`, nil)
	doJSON(t, s, http.MethodPost, "/v1/evaluate", `{bad json`, nil)
	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Server.Errors != 2 {
		t.Errorf("server errors = %d, want 2", stats.Server.Errors)
	}
}

func TestStatusOfMapsSentinels(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{clsacim.ErrUnknownModel, http.StatusNotFound},
		{fmt.Errorf("wrapped: %w", clsacim.ErrUnknownModel), http.StatusNotFound},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{clsacim.ErrUnknownSolver, http.StatusBadRequest},
		{clsacim.ErrUnknownMode, http.StatusBadRequest},
		{clsacim.ErrInvalidConfig, http.StatusBadRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// Stream-counter consistency regression: the engine counter, the serve
// layer's stream block, and each response must all report served jobs —
// the engine previously counted requested inferences instead, so the
// three could drift.
func TestStreamStatsConsistentAcrossLayers(t *testing.T) {
	s, eng := newTestServer(t, nil)
	served := 0
	for _, inferences := range []int{3, 5} {
		var resp StreamResponse
		rec := doJSON(t, s, http.MethodPost, "/v1/stream",
			fmt.Sprintf(`{"models": [{"model": "tinyconvnet"}], "inferences": %d, "mode": "xinf",
			  "arrival": {"kind": "closed", "concurrency": 2}}`, inferences), &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		if resp.Inferences != len(resp.Jobs) {
			t.Fatalf("response inferences %d != served jobs %d", resp.Inferences, len(resp.Jobs))
		}
		served += len(resp.Jobs)
	}
	if st := eng.Stats(); st.StreamInferences != int64(served) {
		t.Errorf("engine StreamInferences = %d, want %d served jobs", st.StreamInferences, served)
	}
	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Engine.StreamInferences != int64(served) {
		t.Errorf("wire engine stream_inferences = %d, want %d", stats.Engine.StreamInferences, served)
	}
	if stats.Stream == nil || stats.Stream.Inferences != int64(served) {
		t.Errorf("stream block = %+v, want %d inferences", stats.Stream, served)
	}
}
