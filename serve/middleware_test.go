package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clsacim"
)

// panicOn is a test middleware that panics (or aborts) when the request
// carries the trigger header, standing in for a buggy handler below the
// recovery layer.
func panicOn(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get("X-Chaos") {
		case "panic":
			panic("chaos: injected panic")
		case "abort":
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

func TestPanicRecoveryKeepsServing(t *testing.T) {
	s, _ := newTestServer(t, nil, WithMiddleware(panicOn))

	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", nil)
	req.Header.Set("X-Chaos", "panic")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("500 body %q is not a JSON envelope: %v", rec.Body, err)
	}
	if er.Code != CodeInternal {
		t.Errorf("code = %q, want %q", er.Code, CodeInternal)
	}
	if er.RequestID == "" {
		t.Error("500 envelope has no request_id")
	}

	// The daemon survived: the same server keeps serving real requests.
	var ev Evaluation
	rec = doJSON(t, s, http.MethodPost, "/v1/evaluate", `{"model": "tinyconvnet", "mode": "lbl"}`, &ev)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic evaluate: status = %d, body %s", rec.Code, rec.Body)
	}

	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Server.Panics != 1 {
		t.Errorf("stats panics = %d, want 1", stats.Server.Panics)
	}
}

func TestAbortHandlerPanicPassesThrough(t *testing.T) {
	s, _ := newTestServer(t, nil, WithMiddleware(panicOn))
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Chaos", "abort")
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Errorf("recovered %v, want http.ErrAbortHandler to pass through", p)
		}
	}()
	s.ServeHTTP(httptest.NewRecorder(), req)
	t.Fatal("ServeHTTP returned; want the abort panic to propagate to net/http")
}

func TestRequestIDEchoedAndMinted(t *testing.T) {
	s, _ := newTestServer(t, nil)

	// A caller-supplied ID is echoed on the response and in error
	// envelopes.
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", nil)
	req.Header.Set(RequestIDHeader, "caller-7")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "caller-7" {
		t.Errorf("echoed request ID = %q, want caller-7", got)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if er.RequestID != "caller-7" {
		t.Errorf("envelope request_id = %q, want caller-7", er.RequestID)
	}

	// Without a caller ID the server mints distinct ones.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		rec := doJSON(t, s, http.MethodGet, "/healthz", "", nil)
		id := rec.Header().Get(RequestIDHeader)
		if id == "" {
			t.Fatal("no request ID minted")
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
}

// TestErrorEnvelopesCarryContentTypeAndRequestID audits every
// non-handler error path: the 404 catch-all, 405, and 413 must all
// return the JSON envelope, not plain text.
func TestErrorEnvelopesCarryContentTypeAndRequestID(t *testing.T) {
	s, _ := newTestServer(t, nil, WithMaxBodyBytes(128))
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"catch-all 404", http.MethodGet, "/nope", "", http.StatusNotFound},
		{"method 405", http.MethodGet, "/v1/evaluate", "", http.StatusMethodNotAllowed},
		{"oversized 413", http.MethodPost, "/v1/evaluate",
			`{"model": "` + strings.Repeat("a", 256) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			rec := doJSON(t, s, tc.method, tc.path, tc.body, &er)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", rec.Code, tc.status, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			if er.Error == "" {
				t.Error("envelope has no error message")
			}
			if er.RequestID == "" {
				t.Error("envelope has no request_id")
			}
		})
	}
}

// TestAdmissionShedsBurst drives a burst through a tiny gate wrapped
// around a blocking handler: one request executes, one queues (and is
// shed with 503 when its wait expires), the overflow is shed with 429
// immediately, and all shed responses carry Retry-After and the
// overloaded code.
func TestAdmissionShedsBurst(t *testing.T) {
	s, _ := newTestServer(t, nil,
		WithAdmission(ClassEvaluate, AdmissionLimits{
			MaxConcurrent: 1, MaxQueue: 1, MaxWait: 50 * time.Millisecond,
		}))
	g := s.gates[ClassEvaluate]

	release := make(chan struct{})
	h := s.admit(ClassEvaluate, func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	})

	do := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", nil))
		return rec
	}
	waitFor := func(name string, f func() bool) {
		t.Helper()
		for i := 0; i < 1000; i++ {
			if f() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", name)
	}

	var wg sync.WaitGroup
	results := make(chan int, 2)
	wg.Add(1)
	go func() { // A: admitted, blocks in the handler
		defer wg.Done()
		results <- do().Code
	}()
	waitFor("A in flight", func() bool { return g.inflight.Load() == 1 })
	wg.Add(1)
	go func() { // B: queued, will wait out MaxWait
		defer wg.Done()
		results <- do().Code
	}()
	waitFor("B queued", func() bool { return g.queued.Load() == 1 })

	// C and D find the slot busy and the queue full: immediate 429.
	for _, name := range []string{"C", "D"} {
		rec := do()
		if rec.Code != http.StatusTooManyRequests {
			t.Errorf("%s: status = %d, want 429", name, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", name)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != CodeOverloaded {
			t.Errorf("%s: envelope %s, want code %q", name, rec.Body, CodeOverloaded)
		}
	}

	// B's wait expires: 503. Then A is released and completes.
	if code := <-results; code != http.StatusServiceUnavailable {
		t.Errorf("queued request: status = %d, want 503", code)
	}
	close(release)
	if code := <-results; code != http.StatusOK {
		t.Errorf("admitted request: status = %d, want 200", code)
	}
	wg.Wait()

	if a, sh := g.admitted.Load(), g.shed.Load(); a != 1 || sh != 3 {
		t.Errorf("gate counters: admitted %d, shed %d; want 1, 3", a, sh)
	}
	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if stats.Server.Shed != 3 {
		t.Errorf("server shed counter = %d, want 3", stats.Server.Shed)
	}
}

func TestAdmissionStatsExposed(t *testing.T) {
	s, _ := newTestServer(t, nil,
		WithAdmission(ClassEvaluate, AdmissionLimits{MaxConcurrent: 8, MaxQueue: 16, MaxWait: time.Second}),
		WithAdmission(ClassBatch, AdmissionLimits{MaxConcurrent: 2, MaxQueue: 4, MaxWait: time.Second}))
	var ev Evaluation
	rec := doJSON(t, s, http.MethodPost, "/v1/evaluate", `{"model": "tinyconvnet", "mode": "lbl"}`, &ev)
	if rec.Code != http.StatusOK {
		t.Fatalf("evaluate through gate: status = %d, body %s", rec.Code, rec.Body)
	}
	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", "", &stats)
	if len(stats.Server.Admission) != 2 {
		t.Fatalf("admission stats for %d classes, want 2", len(stats.Server.Admission))
	}
	ev0 := stats.Server.Admission[0]
	if ev0.Class != ClassEvaluate || ev0.MaxConcurrent != 8 || ev0.Admitted != 1 || ev0.Shed != 0 {
		t.Errorf("evaluate class stats = %+v", ev0)
	}
	if stats.Server.Admission[1].Class != ClassBatch {
		t.Errorf("second class = %q, want batch", stats.Server.Admission[1].Class)
	}
}

func TestParseAdmission(t *testing.T) {
	gates, err := ParseAdmission("evaluate=32:64:500ms,batch=4:8:1s,stream=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]AdmissionLimits{
		ClassEvaluate: {MaxConcurrent: 32, MaxQueue: 64, MaxWait: 500 * time.Millisecond},
		ClassBatch:    {MaxConcurrent: 4, MaxQueue: 8, MaxWait: time.Second},
		ClassStream:   {MaxConcurrent: 2, MaxQueue: 4, MaxWait: 500 * time.Millisecond},
	}
	for class, w := range want {
		if got := gates[class]; got != w {
			t.Errorf("%s = %+v, want %+v", class, got, w)
		}
	}
	for _, bad := range []string{"evaluate", "evaluate=0", "evaluate=1:2:3:4", "evaluate=x", "evaluate=1:2:nope"} {
		if _, err := ParseAdmission(bad); err == nil {
			t.Errorf("ParseAdmission(%q) accepted", bad)
		}
	}
	// Unknown classes are rejected at option time, not parse time.
	if _, err := New(mustEngine(t), WithAdmission("models", AdmissionLimits{MaxConcurrent: 1})); err == nil {
		t.Error("WithAdmission accepted unknown class")
	}
}

func mustEngine(t *testing.T) *clsacim.Engine {
	t.Helper()
	eng, err := clsacim.New()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
