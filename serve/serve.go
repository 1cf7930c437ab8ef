// Package serve exposes a clsacim.Engine over HTTP/JSON — the network
// surface of the reproduction's evaluation pipeline. It is the scale
// leg of the system: a single long-running daemon (cmd/clsaserved)
// holds one Engine whose bounded, single-flight compile cache is shared
// by every remote caller, so sweeps from many clients compile each
// distinct (model, architecture, mapping) key once instead of once per
// process.
//
// Endpoints:
//
//	POST /v1/evaluate        one clsacim.Request -> Evaluation
//	POST /v1/evaluate/batch  BatchRequest -> BatchResponse (positional)
//	POST /v1/stream          one clsacim.StreamRequest -> StreamResponse
//	GET  /v1/models          models, solvers, and mode names
//	GET  /v1/stats           engine cache counters + server counters
//	GET  /healthz            liveness probe ("ok")
//
// Errors are returned as ErrorResponse JSON: 400 for malformed or
// invalid requests, 404 for unknown models (clsacim.ErrUnknownModel),
// 405 for wrong methods, 413 for oversized batches, 429/503 when an
// admission gate sheds the request (with Retry-After), 500 (code
// "internal") for recovered handler panics, and 504 when a request
// deadline expires. Every response carries X-Request-ID (generated or
// echoed) and every error envelope repeats it in request_id. The typed
// Go client in package client wraps these endpoints and retries the
// temporary subset.
//
// Resilience: requests pass through a middleware chain (accounting,
// request-ID propagation, panic recovery, optional fault injection,
// per-class admission gates — see middleware.go) before reaching the
// handlers, so one panicking handler or one overload burst cannot take
// the daemon down or hang clients.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"clsacim"
)

// Default server limits; override with the With* options.
const (
	DefaultMaxBatch     = 1024
	DefaultMaxBodyBytes = 8 << 20 // 8 MiB
)

// Server is an http.Handler serving one Engine. Construct with New;
// the zero value is not usable. All handlers are safe for concurrent
// use — concurrency control is the Engine's job (worker pool, compile
// cache), the Server only enforces wire-level limits.
type Server struct {
	eng          *clsacim.Engine
	mux          *http.ServeMux
	chain        http.Handler // the middleware chain ending in mux
	inner        func(http.Handler) http.Handler
	gates        map[string]*gate
	timeout      time.Duration
	maxBatch     int
	maxBodyBytes int64
	logf         func(format string, args ...any)
	start        time.Time
	reqSeq       atomic.Uint64

	requests   atomic.Int64
	errors     atomic.Int64
	batchItems atomic.Int64
	inFlight   atomic.Int64
	panics     atomic.Int64

	streamEvals atomic.Int64
	streamInfs  atomic.Int64
	// lastStream snapshots the most recent streamed evaluation for the
	// stream block of /v1/stats; nil until the first stream completes.
	lastStream atomic.Pointer[streamSummary]
}

// streamSummary is the retained slice of one streamed evaluation.
type streamSummary struct {
	models     []string
	throughput float64
	p99Nanos   float64
}

// Option configures a Server at construction time.
type Option func(*Server) error

// WithRequestTimeout bounds every request's handling time (0 disables
// the server-side bound; individual requests can still set
// timeout_ms). The per-request timeout_ms, when set, applies on top and
// the earlier deadline wins.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) error {
		if d < 0 {
			return fmt.Errorf("serve: negative request timeout %v", d)
		}
		s.timeout = d
		return nil
	}
}

// WithMaxBatch caps the number of requests accepted in one batch call
// (default DefaultMaxBatch). Larger batches are rejected with 413.
func WithMaxBatch(n int) Option {
	return func(s *Server) error {
		if n <= 0 {
			return fmt.Errorf("serve: invalid max batch %d", n)
		}
		s.maxBatch = n
		return nil
	}
}

// WithMaxBodyBytes caps request body size (default
// DefaultMaxBodyBytes).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) error {
		if n <= 0 {
			return fmt.Errorf("serve: invalid max body size %d", n)
		}
		s.maxBodyBytes = n
		return nil
	}
}

// WithLogger routes request logging to logf (default: the standard
// log package). Pass a no-op func to silence the server.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) error {
		if logf == nil {
			return errors.New("serve: nil logger")
		}
		s.logf = logf
		return nil
	}
}

// New builds a Server around eng.
func New(eng *clsacim.Engine, opts ...Option) (*Server, error) {
	if eng == nil {
		return nil, errors.New("serve: nil engine")
	}
	s := &Server{
		eng:          eng,
		gates:        make(map[string]*gate),
		maxBatch:     DefaultMaxBatch,
		maxBodyBytes: DefaultMaxBodyBytes,
		logf:         log.Printf,
		start:        time.Now(),
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/evaluate", s.method(http.MethodPost, s.admit(ClassEvaluate, s.handleEvaluate)))
	s.mux.HandleFunc("/v1/evaluate/batch", s.method(http.MethodPost, s.admit(ClassBatch, s.handleBatch)))
	s.mux.HandleFunc("/v1/stream", s.method(http.MethodPost, s.admit(ClassStream, s.handleStream)))
	s.mux.HandleFunc("/v1/models", s.method(http.MethodGet, s.handleModels))
	s.mux.HandleFunc("/v1/stats", s.method(http.MethodGet, s.handleStats))
	s.mux.HandleFunc("/healthz", s.method(http.MethodGet, s.handleHealth))
	// Unknown paths answer in the same JSON envelope as everything
	// else, so clients never have to parse ServeMux's plain-text 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("serve: no such endpoint %s %s", r.Method, r.URL.Path))
	})
	// The chain wraps outermost-first: request-ID tagging surrounds
	// recovery so panic envelopes carry the ID; injected faults (tests,
	// -faults) fire inside recovery so an injected panic exercises the
	// exact path a real handler panic takes; admission gating sits on
	// the individual endpoints, after routing, so 404/405 never consume
	// an execution slot.
	var h http.Handler = s.mux
	if s.inner != nil {
		h = s.inner(h)
	}
	s.chain = s.requestID(s.recoverPanics(h))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.maxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	}
	s.chain.ServeHTTP(w, r)
}

// method gates a handler on one HTTP method.
func (s *Server) method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			s.writeError(w, r, http.StatusMethodNotAllowed,
				fmt.Errorf("serve: %s %s: method not allowed (want %s)", r.Method, r.URL.Path, want))
			return
		}
		h(w, r)
	}
}

// requestCtx applies the server-side timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return r.Context(), func() {}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req clsacim.Request
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ev, err := s.eng.Evaluate(ctx, req)
	if err != nil {
		s.writeError(w, r, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, wireEvaluation(ev))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	if len(req.Requests) > s.maxBatch {
		s.writeError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: batch of %d exceeds limit %d", len(req.Requests), s.maxBatch))
		return
	}
	s.batchItems.Add(int64(len(req.Requests)))
	// Per-item failures (invalid shape, unknown model, timeout, ...)
	// land in their result slot; the call itself stays 200 so one bad
	// point cannot void a sweep. The engine rejects an item the
	// single-request endpoint would reject before it compiles anything.
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	results, _ := s.eng.EvaluateBatch(ctx, req.Requests)
	resp := BatchResponse{Results: make([]BatchResult, len(results))}
	for i, br := range results {
		resp.Results[i].Request = br.Request
		if br.Err != nil {
			resp.Results[i].Error = br.Err.Error()
		} else {
			resp.Results[i].Evaluation = wireEvaluation(br.Evaluation)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req clsacim.StreamRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := s.eng.EvaluateStream(ctx, req)
	if err != nil {
		s.writeError(w, r, statusOf(err), err)
		return
	}
	s.streamEvals.Add(1)
	s.streamInfs.Add(int64(res.Inferences))
	sum := &streamSummary{throughput: res.ThroughputPerSec, p99Nanos: res.Latency.P99Nanos}
	for _, pm := range res.PerModel {
		sum.models = append(sum.models, pm.Model)
	}
	s.lastStream.Store(sum)
	s.writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, ModelsResponse{
		Models:  clsacim.AllModels(),
		Solvers: clsacim.Solvers(),
		Modes:   []string{"lbl", "x<K>", "xinf"},
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Engine: s.eng.Stats(),
		Server: ServerStats{
			Requests:      s.requests.Load(),
			Errors:        s.errors.Load(),
			BatchItems:    s.batchItems.Load(),
			InFlight:      s.inFlight.Load(),
			Panics:        s.panics.Load(),
			UptimeSeconds: time.Since(s.start).Seconds(),
			Admission:     s.admissionStats(),
		},
	}
	for _, a := range resp.Server.Admission {
		resp.Server.Shed += a.Shed
	}
	if sum := s.lastStream.Load(); sum != nil {
		resp.Stream = &StreamStats{
			Evaluations:          s.streamEvals.Load(),
			Inferences:           s.streamInfs.Load(),
			LastModels:           sum.models,
			LastThroughputPerSec: sum.throughput,
			LastP99Nanos:         sum.p99Nanos,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// decodeJSON strictly decodes one JSON document from the request body.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("serve: decoding request body: %w", err)
	}
	// A second document (or trailing garbage) is a malformed request,
	// not something to silently ignore.
	if dec.More() {
		return errors.New("serve: trailing data after request body")
	}
	return nil
}

// decodeStatus distinguishes a body over the size limit (413, split
// the batch and retry) from malformed JSON (400, fix the request).
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errClasses is the single table mapping the sentinel failures callers
// branch on to their HTTP status and wire code, so the two can never
// drift apart: unknown models are 404 (the resource a Request names
// does not exist here), expired deadlines 504, cancellations 499 (the
// nginx convention — the client is gone, the status is for the access
// log), and request shapes the Engine's request gate rejects
// (ErrInvalidConfig, unknown solvers and modes) 400. This table is all
// the request validation the serve layer does. Codes are set only where
// the client package maps them back to sentinels.
var errClasses = []struct {
	sentinel error
	status   int
	code     string
}{
	{clsacim.ErrUnknownModel, http.StatusNotFound, CodeUnknownModel},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadlineExceeded},
	{context.Canceled, 499, CodeCanceled},
	{clsacim.ErrUnknownSolver, http.StatusBadRequest, ""},
	{clsacim.ErrUnknownMode, http.StatusBadRequest, ""},
	{clsacim.ErrInvalidConfig, http.StatusBadRequest, ""},
	{clsacim.ErrDuplicateModel, http.StatusBadRequest, ""},
	{clsacim.ErrDuplicateSolver, http.StatusBadRequest, ""},
}

// classify resolves an evaluation error against errClasses; anything
// unrecognized is a 500 with no code.
func classify(err error) (status int, code string) {
	for _, c := range errClasses {
		if errors.Is(err, c.sentinel) {
			return c.status, c.code
		}
	}
	return http.StatusInternalServerError, ""
}

// statusOf is classify's status alone, for handlers that picked their
// own code path.
func statusOf(err error) int {
	status, _ := classify(err)
	return status
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone; all we can do is log.
		s.logf("serve: encoding response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.errors.Add(1)
	id := RequestID(r.Context())
	if status >= 500 {
		s.logf("serve: %d [%s]: %v", status, id, err)
	}
	// The code comes from the same table as statusOf, so a 404 for an
	// unknown *model* carries unknown_model while a 404 for an unknown
	// *endpoint* (which never matches a sentinel) carries none. Shed
	// and panic responses get their dedicated codes so the retrying
	// client can classify without string matching.
	_, code := classify(err)
	if code == "" {
		switch status {
		case http.StatusInternalServerError:
			code = CodeInternal
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			code = CodeOverloaded
		}
	}
	s.writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code, RequestID: id})
}
