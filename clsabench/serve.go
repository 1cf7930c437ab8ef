package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clsacim"
	"clsacim/client"
	"clsacim/serve"
)

const (
	// openLoopRate is the phase A arrival rate in requests per second.
	openLoopRate = 100.0
	// Every coldEvery-th request is cold, cycling through the grid rows
	// outside the hotRows hot ones, so with cacheLimit compilations every
	// cold request misses and evicts.
	hotRows    = 4
	coldEvery  = 10
	cacheLimit = 8
	// latencyLimitMS is the p99 latency limit of phase A.
	latencyLimitMS = 50.0
	// inProcessRequests is how much of the request sequence a traced run
	// replays in-process, without HTTP, to time Engine hits and misses.
	inProcessRequests = 600
	// spanHeader carries the client span id to the server-side span.
	spanHeader = "X-Clsabench-Span"
)

// serveW is what a daemon client sees: an in-process serve.Server
// behind a loopback http.Server, driven through the client package on
// one connection per CPU. Phase A is an open loop (Poisson arrivals at
// openLoopRate, each request timed from when it was due) that gives the
// latency percentiles; phase B is a closed loop on every connection that
// gives the throughput ceiling.
type serveW struct {
	seed      int64
	conns     int
	hot, cold []gridRow
	eng       *clsacim.Engine
	server    *serve.Server
	http      *http.Server
	served    chan error // http.Server.Serve's result
	transport *http.Transport
	cl        *client.Client
	// tracing is non-nil while the server side records spans.
	tracing atomic.Pointer[tracer]
	seen    outcomes
}

func setupServe(seed int64) (instance, error) {
	s := &serveW{seed: seed, conns: runtime.NumCPU(), served: make(chan error, 1)}
	s.hot, s.cold = hotSet(shuffledGrid(seed))
	var err error
	if s.eng, err = clsacim.New(clsacim.WithCacheLimit(cacheLimit)); err != nil {
		return nil, err
	}
	if s.server, err = serve.New(s.eng); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.http = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go func() { s.served <- s.http.Serve(ln) }()
	s.transport = &http.Transport{MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns}
	s.cl, err = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: tagTransport{s.transport}}))
	for i := 0; err == nil && i < len(s.hot); i++ {
		err = s.call(nil, fmt.Sprintf("warm%d", i), s.hot[i])
	}
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// hotSet splits seed-shuffled rows into the hot rows and the cold cycle.
// The hot rows are the case-study model's first row without duplication
// and its first hotRows-1 duplication rows with distinct x: exactly
// hotRows compilations, the first being every hot row's baseline. A hot
// set needing more would share the cache bound with the cold traffic,
// and one drawn from any model would make the hit cost depend on the
// seed. The cold rows take turns by model, so consecutive cold requests
// name different models and each misses on its baseline as well as its
// own mapping; in a seed-shuffled order, runs of one model would share
// baselines and make the compile work per cold request, and with it the
// throughput, depend on the seed.
func hotSet(rows []gridRow) (hot, cold []gridRow) {
	model := headline().Model
	for _, r := range rows {
		if r.Model == model && !r.Wdup {
			hot = append(hot, r)
			break
		}
	}
	xs := make(map[int]bool)
	for _, r := range rows {
		if len(hot) < hotRows && r.Model == model && r.Wdup && !xs[r.X] {
			xs[r.X] = true
			hot = append(hot, r)
		} else if r != hot[0] {
			cold = append(cold, r)
		}
	}
	return hot, interleave(cold)
}

// interleave orders rows round-robin across their models, taken in order
// of first appearance, keeping each model's rows in their given order.
func interleave(rows []gridRow) []gridRow {
	var models []string
	byModel := make(map[string][]gridRow)
	for _, r := range rows {
		if _, ok := byModel[r.Model]; !ok {
			models = append(models, r.Model)
		}
		byModel[r.Model] = append(byModel[r.Model], r)
	}
	out := make([]gridRow, 0, len(rows))
	for len(out) < len(rows) {
		for _, m := range models {
			if rs := byModel[m]; len(rs) > 0 {
				out = append(out, rs[0])
				byModel[m] = rs[1:]
			}
		}
	}
	return out
}

// shuffledGrid is the reference grid in a seed-shuffled order.
func shuffledGrid(seed int64) []gridRow {
	rows := append([]gridRow(nil), ref.Grid...)
	rand.New(rand.NewSource(seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// handle wraps Server.ServeHTTP with the server-side span.
func (s *serveW) handle(w http.ResponseWriter, r *http.Request) {
	tr := s.tracing.Load()
	if tr == nil {
		s.server.ServeHTTP(w, r)
		return
	}
	// A request without the header (none is sent untagged) gets no parent.
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	sp := tr.start(spanID(parent), "serve.handle", r.Header.Get(serve.RequestIDHeader))
	s.server.ServeHTTP(w, r)
	tr.end(sp)
}

type tagKey struct{}

// tag names a request and its client span on the wire.
type tag struct {
	id   string
	span spanID
}

// tagTransport sends a request's tag as its X-Request-ID and span
// headers, so server-side spans join the client span of their request.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tg, ok := r.Context().Value(tagKey{}).(tag)
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(serve.RequestIDHeader, tg.id)
	r.Header.Set(spanHeader, strconv.Itoa(int(tg.span)))
	return t.base.RoundTrip(r)
}

// call sends one evaluate request and checks the answer.
func (s *serveW) call(tr *tracer, id string, r gridRow) error {
	sp := tr.start(0, "client.evaluate", id)
	ctx := context.WithValue(context.Background(), tagKey{}, tag{id, sp})
	ev, err := s.cl.Evaluate(ctx, r.request())
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%v: %w", r, err)
	}
	return checkOutcome(&s.seen, r, outcome{ev.Result.MakespanCycles, ev.Result.Duplication})
}

// mix draws the request sequence: every coldEvery-th request is the next
// cold row of the cycle, every other one a hot row drawn uniformly. Cold
// requests come at a fixed stride rather than at random because bursts
// of them evict hot compilations; random placement moved the compile
// work per request by 20% between seeds. Draws are serialized, so the
// i-th draw is the same on every run with the same seed.
type mix struct {
	mu        sync.Mutex
	rng       *rand.Rand
	hot, cold []gridRow
	drawn     int
}

func (s *serveW) newMix() *mix {
	return &mix{rng: rand.New(rand.NewSource(s.seed + 1)), hot: s.hot, cold: s.cold}
}

func (m *mix) draw() gridRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drawn++
	if m.drawn%coldEvery != 0 {
		return m.hot[m.rng.Intn(len(m.hot))]
	}
	return m.cold[(m.drawn/coldEvery-1)%len(m.cold)]
}

// poissonArrivals returns the due times, relative to the start, of
// Poisson arrivals at rate per second within d.
func poissonArrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

func (s *serveW) measure(d time.Duration, tr *tracer) (*window, error) {
	s.tracing.Store(tr)
	defer s.tracing.Store(nil)
	w := &window{layers: make(map[string]float64)}
	var before *serve.StatsResponse
	if tr != nil {
		var err error
		if before, err = s.cl.Stats(context.Background()); err != nil {
			return nil, err
		}
	}
	engBefore, cpu0 := s.eng.Stats(), cpuMS()
	m := s.newMix()
	lat, late, due := s.openLoop(m, poissonArrivals(s.seed, openLoopRate, d*2/3), tr, w)
	done, elapsed := s.saturate(m, d/3, tr, w)
	w.engine = subStats(s.eng.Stats(), engBefore)
	w.ops = w.attempted
	// Client and server share the process, and one request's CPU time
	// cannot be told apart from its concurrent neighbour's, so this is the
	// window's total over its requests.
	w.cpuPerOp, w.cpuSamples = (cpuMS()-cpu0)/float64(w.attempted), w.attempted
	p99 := percentile(lat, 0.99)
	verdict := "met"
	if p99 > latencyLimitMS {
		verdict = "MISSED"
	}
	w.notes = append(w.notes,
		fmt.Sprintf("cpu_ms_per_op is the CPU time of client and server over both phases per request (%d requests)", w.attempted),
		fmt.Sprintf("phase A (open loop, %.0f req/s): %d requests, p50 %.3f ms, p99 %.3f ms (limit %.0f ms %s), generator late by at most %.3f ms",
			openLoopRate, len(lat), median(lat), p99, latencyLimitMS, verdict, percentile(late, 1)),
		fmt.Sprintf("phase B (closed loop, %d connections): %d requests in %.2f s, max_rps %.1f", s.conns, done, elapsed.Seconds(), float64(done)/elapsed.Seconds()))
	w.layers["bench.generator_late_ms_max"] = percentile(late, 1)
	if tr != nil {
		after, err := s.cl.Stats(context.Background())
		if err != nil {
			return nil, err
		}
		ops := float64(w.ops)
		w.layers["serve.shed"] = float64(after.Server.Shed-before.Server.Shed) / ops
		w.layers["serve.errors"] = float64(after.Server.Errors-before.Server.Errors) / ops
		spanLayers(tr.snapshot(), tr.t0, due, w.layers)
	}
	return w, nil
}

// openLoop sends one request per arrival, pulled in order by one worker
// per connection. Each request is timed from its due time, so a stall
// is charged to every request queued behind it; a failed request counts
// as infinitely late. It returns each request's latency and lateness
// (how late its send started) in milliseconds, and the due times.
func (s *serveW) openLoop(m *mix, arrivals []time.Duration, tr *tracer, w *window) (lat, late []float64, due []time.Time) {
	n := len(arrivals)
	rows := make([]gridRow, n)
	for i := range rows {
		rows[i] = m.draw()
	}
	lat, late, due = make([]float64, n), make([]float64, n), make([]time.Time, n)
	start := time.Now()
	for i, a := range arrivals {
		due[i] = start.Add(a)
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(s.conns)
	for c := 0; c < s.conns; c++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				time.Sleep(time.Until(due[i]))
				late[i] = ms(time.Since(due[i]))
				err := s.call(tr, "a"+strconv.Itoa(i), rows[i])
				lat[i] = ms(time.Since(due[i]))
				if err != nil {
					logFailure(err)
					failed.Add(1)
					lat[i] = math.Inf(1)
				}
			}
		}()
	}
	wg.Wait()
	w.attempted += n
	w.failed += int(failed.Load())
	return lat, late, due
}

// saturate keeps every connection busy for d and returns the number of
// successful requests and the time they took.
func (s *serveW) saturate(m *mix, d time.Duration, tr *tracer, w *window) (int, time.Duration) {
	var sent, done, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(s.conns)
	for c := 0; c < s.conns; c++ {
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				err := s.call(tr, "b"+strconv.FormatInt(sent.Add(1), 10), m.draw())
				if err != nil {
					logFailure(err)
					failed.Add(1)
				} else {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	w.attempted += int(sent.Load())
	w.failed += int(failed.Load())
	return int(done.Load()), elapsed
}

// spanLayers derives the serve and client layer metrics from the spans
// of one window: server time per request, client round trip, the
// client's own share of it (its span's self time), and how long an open
// loop request waited between being due and reaching the server.
func spanLayers(spans []span, t0 time.Time, due []time.Time, layers map[string]float64) {
	self := selfTimes(spans)
	var server, queue, rtt, overhead []float64
	for i, sp := range spans {
		switch sp.name {
		case "serve.handle":
			server = append(server, ms(sp.end-sp.start))
			if k, err := strconv.Atoi(strings.TrimPrefix(sp.req, "a")); err == nil && strings.HasPrefix(sp.req, "a") {
				queue = append(queue, ms(t0.Add(sp.start).Sub(due[k])))
			}
		case "client.evaluate":
			rtt = append(rtt, ms(sp.end-sp.start))
			overhead = append(overhead, ms(self[i]))
		}
	}
	layers["serve.server_ms_p50"] = median(server)
	layers["serve.server_ms_p99"] = percentile(server, 0.99)
	layers["serve.queue_wait_ms_p99"] = percentile(queue, 0.99)
	layers["client.rtt_ms_p50"] = median(rtt)
	layers["client.rtt_ms_p99"] = percentile(rtt, 0.99)
	layers["client.overhead_ms_p50"] = median(overhead)
}

func (s *serveW) verify() (*clsacim.Engine, error) {
	return verifyRows(&s.seen)
}

// replay times Engine hits and misses on the first inProcessRequests of
// the request sequence, evaluated serially in-process on an Engine with
// the daemon's cache bound, then replays every grid compilation stage by
// stage.
func (s *serveW) replay(rp *replayer, layers map[string]float64) error {
	eng, err := clsacim.New(clsacim.WithCacheLimit(cacheLimit))
	if err != nil {
		return err
	}
	for _, r := range s.hot {
		if _, err := eng.Evaluate(context.Background(), r.request()); err != nil {
			return err
		}
	}
	m := s.newMix()
	var hit, miss []float64
	for i := 0; i < inProcessRequests; i++ {
		r := m.draw()
		misses := eng.Stats().CacheMisses
		sp := rp.tr.start(0, "engine.evaluate", fmt.Sprintf("p%d", i))
		ev, err := eng.Evaluate(context.Background(), r.request())
		d := ms(rp.tr.end(sp))
		if err := checkRow(&s.seen, r, ev, err); err != nil {
			return err
		}
		if eng.Stats().CacheMisses > misses {
			miss = append(miss, d)
		} else {
			hit = append(hit, d)
		}
	}
	layers["engine.evaluate_hit_ms_p50"] = median(hit)
	layers["engine.evaluate_miss_ms_p50"] = median(miss)
	for i, k := range replayKeys(ref.Grid) {
		if _, err := rp.request(fmt.Sprintf("key%d", i), k.req, k.modes); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveW) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.transport.CloseIdleConnections()
	return err
}
