package serve

// The resilience middleware chain. Every request flows through
//
//	accounting -> request-ID -> panic recovery -> [injected faults] ->
//	  admission gate (per endpoint class) -> handler
//
// assembled in Server.handler(). Each layer is independent: request-ID
// propagation tags every response (and error envelope) with an
// identifier clients and logs can correlate; panic recovery converts
// handler panics into 500 JSON envelopes (code "internal") instead of
// dropped connections, keeping the daemon alive; the admission gates
// bound concurrency and queueing per endpoint class and shed the
// overflow with 429/503 + Retry-After instead of letting a burst take
// every tenant down.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries the request identifier: clients may supply
// their own (any non-empty value is accepted and echoed), otherwise the
// server generates one. The response always carries the header, and
// error envelopes repeat it in request_id, so a failure in a client log
// can be matched to the daemon's log line.
const RequestIDHeader = "X-Request-ID"

type ctxKey int

const ctxKeyRequestID ctxKey = 0

// RequestID returns the request identifier attached by the Server's
// middleware, "" outside a request handled by it.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// requestID tags the request: accept the caller's ID or mint one, echo
// it on the response, and stash it in the context for error envelopes
// and logs.
func (s *Server) requestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			// Unique per process lifetime: start-time entropy plus a
			// monotonic counter. No coordination with other daemons is
			// attempted — correlation, not global uniqueness, is the job.
			id = fmt.Sprintf("%08x-%06x", uint32(s.start.UnixNano()), s.reqSeq.Add(1))
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id)))
	})
}

// recoverPanics converts a handler panic into a 500 JSON envelope (code
// "internal") and keeps the daemon serving. http.ErrAbortHandler is
// re-panicked: it is the sanctioned way to abort a connection without a
// response (fault injection uses it for connection drops), and net/http
// handles it quietly.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			s.panics.Add(1)
			s.logf("serve: panic serving %s %s [%s]: %v\n%s",
				r.Method, r.URL.Path, RequestID(r.Context()), p, debug.Stack())
			// If the handler already wrote a status line the 500 cannot
			// be delivered; the envelope write is then a no-op on the
			// client's view but the panic is logged either way.
			s.writeError(w, r, http.StatusInternalServerError,
				fmt.Errorf("serve: internal error serving %s %s", r.Method, r.URL.Path))
		}()
		next.ServeHTTP(w, r)
	})
}

// Endpoint classes of the admission gates. Evaluate, batch, and stream
// requests cost very different amounts of engine time, so each class is
// weighted (bounded) separately: a burst of heavy stream evaluations
// cannot starve cheap single evaluations of admission.
const (
	ClassEvaluate = "evaluate"
	ClassBatch    = "batch"
	ClassStream   = "stream"
)

// AdmissionLimits bounds one endpoint class: at most MaxConcurrent
// requests execute at once, at most MaxQueue more wait for a slot, and
// no request waits longer than MaxWait. Requests beyond the queue are
// shed immediately with 429; requests whose wait exceeds MaxWait are
// shed with 503. Both carry Retry-After.
type AdmissionLimits struct {
	MaxConcurrent int
	MaxQueue      int
	MaxWait       time.Duration
}

func (l AdmissionLimits) validate(class string) error {
	if l.MaxConcurrent <= 0 {
		return fmt.Errorf("serve: admission class %q needs MaxConcurrent > 0, have %d", class, l.MaxConcurrent)
	}
	if l.MaxQueue < 0 {
		return fmt.Errorf("serve: admission class %q has negative MaxQueue %d", class, l.MaxQueue)
	}
	if l.MaxWait < 0 {
		return fmt.Errorf("serve: admission class %q has negative MaxWait %v", class, l.MaxWait)
	}
	return nil
}

// WithAdmission bounds one endpoint class (ClassEvaluate, ClassBatch,
// ClassStream). Classes without a gate stay unbounded, preserving the
// pre-admission behavior.
func WithAdmission(class string, lim AdmissionLimits) Option {
	return func(s *Server) error {
		switch class {
		case ClassEvaluate, ClassBatch, ClassStream:
		default:
			return fmt.Errorf("serve: unknown admission class %q", class)
		}
		if err := lim.validate(class); err != nil {
			return err
		}
		s.gates[class] = newGate(class, lim)
		return nil
	}
}

// ParseAdmission reads the daemon's -admit flag: comma-separated
// class=concurrent[:queue[:wait]] specs, e.g.
//
//	evaluate=32:64:500ms,batch=4:8:1s,stream=2
//
// Queue defaults to 2x the concurrency, wait to 500ms.
func ParseAdmission(spec string) (map[string]AdmissionLimits, error) {
	out := make(map[string]AdmissionLimits)
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		class, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("serve: admission spec %q is not class=limits", kv)
		}
		parts := strings.Split(val, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("serve: admission spec %q wants concurrent[:queue[:wait]]", kv)
		}
		lim := AdmissionLimits{MaxWait: 500 * time.Millisecond}
		var err error
		if lim.MaxConcurrent, err = strconv.Atoi(parts[0]); err != nil {
			return nil, fmt.Errorf("serve: admission spec %q: %w", kv, err)
		}
		lim.MaxQueue = 2 * lim.MaxConcurrent
		if len(parts) > 1 {
			if lim.MaxQueue, err = strconv.Atoi(parts[1]); err != nil {
				return nil, fmt.Errorf("serve: admission spec %q: %w", kv, err)
			}
		}
		if len(parts) > 2 {
			if lim.MaxWait, err = time.ParseDuration(parts[2]); err != nil {
				return nil, fmt.Errorf("serve: admission spec %q: %w", kv, err)
			}
		}
		if err := lim.validate(class); err != nil {
			return nil, err
		}
		out[class] = lim
	}
	return out, nil
}

// WithMiddleware inserts mw into the chain between panic recovery and
// the admission gates. Its intended use is fault injection
// (internal/faultinject): faults fire inside the recovery layer, so an
// injected panic exercises the same path a real handler panic takes,
// while injected connection drops pass through recovery via
// http.ErrAbortHandler.
func WithMiddleware(mw func(http.Handler) http.Handler) Option {
	return func(s *Server) error {
		if mw == nil {
			return errors.New("serve: nil middleware")
		}
		s.inner = mw
		return nil
	}
}

// gate is one endpoint class's admission control: a concurrency
// semaphore with a bounded wait queue. Shedding is immediate when the
// queue is full and deadline-bounded while queued, so an overloaded
// daemon answers quickly instead of hanging clients.
type gate struct {
	class string
	lim   AdmissionLimits
	slots chan struct{}
	queue chan struct{}

	admitted atomic.Int64
	shed     atomic.Int64
	inflight atomic.Int64
	queued   atomic.Int64
}

func newGate(class string, lim AdmissionLimits) *gate {
	return &gate{
		class: class,
		lim:   lim,
		slots: make(chan struct{}, lim.MaxConcurrent),
		queue: make(chan struct{}, lim.MaxQueue),
	}
}

// retryAfterSeconds suggests when a shed client should come back: at
// least one second, or the queue-drain horizon implied by MaxWait.
func (g *gate) retryAfterSeconds() int {
	secs := int(g.lim.MaxWait / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// acquire admits the request or reports how it was shed: status is 0 on
// admission (release must be called exactly once), 429 when the wait
// queue is full, 503 when the slot wait timed out or the client went
// away while queued.
func (g *gate) acquire(ctx context.Context) (release func(), status int) {
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.inflight.Add(1)
		return g.releaseSlot, 0
	default:
	}
	// No free slot: try to queue.
	select {
	case g.queue <- struct{}{}:
	default:
		g.shed.Add(1)
		return nil, http.StatusTooManyRequests
	}
	g.queued.Add(1)
	defer func() {
		g.queued.Add(-1)
		<-g.queue
	}()
	timer := time.NewTimer(g.lim.MaxWait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.inflight.Add(1)
		return g.releaseSlot, 0
	case <-timer.C:
		g.shed.Add(1)
		return nil, http.StatusServiceUnavailable
	case <-ctx.Done():
		g.shed.Add(1)
		return nil, http.StatusServiceUnavailable
	}
}

func (g *gate) releaseSlot() {
	g.inflight.Add(-1)
	<-g.slots
}

// admit wraps h with the class's admission gate; classes without a
// configured gate pass through untouched.
func (s *Server) admit(class string, h http.HandlerFunc) http.HandlerFunc {
	g, ok := s.gates[class]
	if !ok {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, status := g.acquire(r.Context())
		if status != 0 {
			w.Header().Set("Retry-After", strconv.Itoa(g.retryAfterSeconds()))
			s.writeError(w, r, status,
				fmt.Errorf("serve: %s overloaded (limit %d in flight, %d queued); retry later",
					class, g.lim.MaxConcurrent, g.lim.MaxQueue))
			return
		}
		defer release()
		h(w, r)
	}
}

// admissionStats snapshots every configured gate, stable by class name.
func (s *Server) admissionStats() []AdmissionClassStats {
	var out []AdmissionClassStats
	for _, class := range []string{ClassEvaluate, ClassBatch, ClassStream} {
		g, ok := s.gates[class]
		if !ok {
			continue
		}
		out = append(out, AdmissionClassStats{
			Class:         class,
			MaxConcurrent: g.lim.MaxConcurrent,
			MaxQueue:      g.lim.MaxQueue,
			InFlight:      g.inflight.Load(),
			Queued:        g.queued.Load(),
			Admitted:      g.admitted.Load(),
			Shed:          g.shed.Load(),
		})
	}
	return out
}
