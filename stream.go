package clsacim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"clsacim/internal/check"
	"clsacim/internal/metrics"
	"clsacim/internal/stream"
)

// ArrivalProcess selects how inference requests enter a streamed
// evaluation. All processes are seeded and fully deterministic: the
// same process produces the same arrival trace on every run.
type ArrivalProcess struct {
	// Kind is "closed" (default), "poisson", or "bursty".
	//
	//   - closed: a fixed population of Concurrency outstanding
	//     inferences; each completion immediately issues the next
	//     request (the classic closed-loop throughput benchmark).
	//   - poisson: open-loop arrivals at RatePerSec with exponential
	//     inter-arrival times.
	//   - bursty: an ON-OFF (interrupted Poisson) process — ON periods
	//     of mean MeanOnMillis with Poisson arrivals at RatePerSec,
	//     separated by silent OFF periods of mean MeanOffMillis.
	Kind string `json:"kind,omitempty"`
	// Seed drives the deterministic RNG (and, for multi-model streams,
	// the model mix sequence).
	Seed uint64 `json:"seed,omitempty"`
	// RatePerSec is the mean arrival rate while generating (poisson,
	// bursty).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// MeanOnMillis / MeanOffMillis shape the bursty process.
	MeanOnMillis  float64 `json:"mean_on_ms,omitempty"`
	MeanOffMillis float64 `json:"mean_off_ms,omitempty"`
	// Concurrency is the closed-loop population (default 1).
	Concurrency int `json:"concurrency,omitempty"`
}

// maxStreamInferences caps StreamRequest.Inferences. A stream's
// per-job records grow with its length before any scheduling starts,
// so an unbounded count lets one request exhaust the process's memory
// (a fatal runtime error no panic recovery catches). The largest stream
// the repository runs serves 300 inferences. The request limits of
// ROADMAP item 1 will absorb this cap.
const maxStreamInferences = 65536

const (
	arrivalClosed  = "closed"
	arrivalPoisson = "poisson"
	arrivalBursty  = "bursty"
)

func (a ArrivalProcess) kind() string {
	if a.Kind == "" {
		return arrivalClosed
	}
	return a.Kind
}

func (a ArrivalProcess) validate() error {
	switch a.kind() {
	case arrivalClosed:
		if a.Concurrency < 0 {
			return fmt.Errorf("%w: negative closed-loop concurrency %d", ErrInvalidConfig, a.Concurrency)
		}
	case arrivalPoisson:
		if !(a.RatePerSec > 0) || math.IsInf(a.RatePerSec, 0) {
			return fmt.Errorf("%w: poisson arrivals need a positive rate, have %g/s", ErrInvalidConfig, a.RatePerSec)
		}
	case arrivalBursty:
		if !(a.RatePerSec > 0) || math.IsInf(a.RatePerSec, 0) {
			return fmt.Errorf("%w: bursty arrivals need a positive rate, have %g/s", ErrInvalidConfig, a.RatePerSec)
		}
		if !(a.MeanOnMillis > 0) || !(a.MeanOffMillis > 0) {
			return fmt.Errorf("%w: bursty arrivals need positive ON/OFF periods, have %g/%g ms",
				ErrInvalidConfig, a.MeanOnMillis, a.MeanOffMillis)
		}
	default:
		return fmt.Errorf("%w: unknown arrival kind %q (want closed, poisson, or bursty)", ErrInvalidConfig, a.Kind)
	}
	return nil
}

// StreamModel is one resident model class of a streamed evaluation: the
// model name plus the same per-request mapping overlays a Request
// carries, and a mix weight for multi-model streams.
type StreamModel struct {
	Model string `json:"model"`
	// Weight is the model's share of the request mix (default: equal).
	Weight float64 `json:"weight,omitempty"`
	// Mapping overlays, as in Request.
	ExtraPEs          int     `json:"extra_pes,omitempty"`
	TotalPEs          int     `json:"total_pes,omitempty"`
	WeightDuplication bool    `json:"weight_duplication,omitempty"`
	Solver            string  `json:"solver,omitempty"`
	Config            *Config `json:"config,omitempty"`
}

// request adapts the stream model to the Request overlay machinery so
// compilation shares the Engine's cache keys with ordinary requests. It
// carries the stream's mode, so a scored solver optimizes the makespan
// of the mode the model will run under, and the stream's deadline.
func (s StreamModel) request(r StreamRequest) Request {
	return Request{
		Model:             s.Model,
		Mode:              r.Mode,
		ExtraPEs:          s.ExtraPEs,
		TotalPEs:          s.TotalPEs,
		WeightDuplication: s.WeightDuplication,
		Solver:            s.Solver,
		Config:            s.Config,
		TimeoutMillis:     r.TimeoutMillis,
	}
}

// StreamRequest describes one streamed multi-inference evaluation:
// which models stay resident on the fabric, how many inferences to
// serve, how they arrive, and how each inference is scheduled.
//
// Like Request it round-trips through JSON:
//
//	{"models": [{"model": "tinyyolov4"}], "inferences": 64,
//	 "mode": "xinf", "arrival": {"kind": "closed", "concurrency": 4}}
type StreamRequest struct {
	Models []StreamModel `json:"models"`
	// Inferences is the total number of requests to serve, at most
	// 65536.
	Inferences int `json:"inferences"`
	// Arrival selects the arrival process (default: closed loop,
	// concurrency 1).
	Arrival ArrivalProcess `json:"arrival"`
	// Mode schedules each inference internally (default lbl); the
	// cross-inference admission is governed by MaxInFlight.
	Mode ScheduleMode `json:"mode"`
	// MaxInFlight gates admissions per model: inference j starts only
	// after inference j-MaxInFlight of the same model completed.
	// 0 = unbounded (admission limited only by the arrival process and
	// fabric contention).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// SharedPool co-schedules all models on one shared crossbar pool
	// (PE ranges overlap and time-share) instead of the default
	// disjoint per-model pools.
	SharedPool bool `json:"shared_pool,omitempty"`
	// TimeoutMillis bounds the request's wall-clock time as in Request.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// Validate checks the request against the process-wide registries
// without compiling anything. EvaluateStream runs the same checks
// itself, so callers need not.
func (r StreamRequest) Validate() error {
	_, err := r.validate(Config{})
	return err
}

// validate is EvaluateStream's request gate: every model's request
// (its model, the stream's TimeoutMillis, and Config.Validate over base
// with the model's overlay) through Request.validate, then the
// stream's own fields. It returns the resolved models in order.
func (r StreamRequest) validate(base Config) ([]*Model, error) {
	if len(r.Models) == 0 {
		return nil, fmt.Errorf("%w: stream request has no models", ErrInvalidConfig)
	}
	models := make([]*Model, len(r.Models))
	for i, sm := range r.Models {
		m, err := sm.request(r).validate(base, nil)
		if err != nil {
			return nil, fmt.Errorf("clsacim: stream model %d: %w", i, err)
		}
		if sm.Weight < 0 || math.IsInf(sm.Weight, 0) || math.IsNaN(sm.Weight) {
			return nil, fmt.Errorf("%w: stream model %d has invalid weight %g", ErrInvalidConfig, i, sm.Weight)
		}
		models[i] = m
	}
	if r.Inferences <= 0 {
		return nil, fmt.Errorf("%w: stream request needs a positive inference count, have %d", ErrInvalidConfig, r.Inferences)
	}
	if r.Inferences > maxStreamInferences {
		return nil, fmt.Errorf("%w: stream request asks for %d inferences, limit %d", ErrInvalidConfig, r.Inferences, maxStreamInferences)
	}
	if r.MaxInFlight < 0 {
		return nil, fmt.Errorf("%w: stream request has negative MaxInFlight %d", ErrInvalidConfig, r.MaxInFlight)
	}
	if err := r.Arrival.validate(); err != nil {
		return nil, err
	}
	return models, nil
}

// LatencyStats summarizes the per-inference sojourn time (completion
// minus arrival) distribution in nanoseconds.
type LatencyStats struct {
	P50Nanos  float64 `json:"p50_nanos"`
	P95Nanos  float64 `json:"p95_nanos"`
	P99Nanos  float64 `json:"p99_nanos"`
	MeanNanos float64 `json:"mean_nanos"`
	MaxNanos  float64 `json:"max_nanos"`
}

// StreamJob is the lifecycle of one served inference.
type StreamJob struct {
	Model        string  `json:"model"`
	ArrivalCycle int64   `json:"arrival_cycle"`
	StartCycle   int64   `json:"start_cycle"`
	EndCycle     int64   `json:"end_cycle"`
	LatencyNanos float64 `json:"latency_nanos"`
}

// StreamQueueSample is one point of the queue-depth trace.
type StreamQueueSample struct {
	Cycle int64 `json:"cycle"`
	Depth int   `json:"depth"`
}

// StreamModelResult is the per-model slice of a streamed evaluation,
// including the single-inference reference that quantifies the
// pipelining gain.
type StreamModelResult struct {
	Model      string `json:"model"`
	Inferences int    `json:"inferences"`
	// SingleMakespanCycles is the makespan of one isolated inference
	// under the same mode — the non-streamed reference.
	SingleMakespanCycles int64 `json:"single_makespan_cycles"`
	// SingleRatePerSec is 1/makespan expressed as inferences per
	// second: the throughput ceiling of serve-one-at-a-time execution.
	SingleRatePerSec float64 `json:"single_rate_per_sec"`
	// ThroughputPerSec is the model's streamed completion rate.
	ThroughputPerSec float64      `json:"throughput_per_sec"`
	Latency          LatencyStats `json:"latency"`
}

// StreamResult is the outcome of one streamed evaluation.
type StreamResult struct {
	Inferences     int     `json:"inferences"`
	MakespanCycles int64   `json:"makespan_cycles"`
	ElapsedNanos   float64 `json:"elapsed_nanos"`
	// ThroughputPerSec is completed inferences per second of simulated
	// time — the steady-state serving rate, not 1/makespan.
	ThroughputPerSec float64      `json:"throughput_per_sec"`
	Latency          LatencyStats `json:"latency"`
	// FabricPEs is the global crossbar count of the simulated fabric.
	FabricPEs int `json:"fabric_pes"`
	// PEUtilization is aggregate busy time over fabric-time (Eq. 2
	// generalized to the whole stream).
	PEUtilization float64 `json:"pe_utilization"`
	// UtilizationPerPE is the per-crossbar busy fraction over the
	// stream — the fabric heat map.
	UtilizationPerPE []float64 `json:"utilization_per_pe"`
	// QueueDepth traces the number of inferences in the system over
	// time, one sample per change.
	QueueDepth []StreamQueueSample `json:"queue_depth"`
	// Jobs holds each served inference's lifecycle in issue order.
	Jobs     []StreamJob         `json:"jobs"`
	PerModel []StreamModelResult `json:"per_model"`
}

// EvaluateStream schedules a stream of Inferences requests of the
// resident Models over one simulated fabric and reports steady-state
// throughput, tail latency, queue depth, and fabric utilization.
//
// Weights stay resident (streaming requires full residency, so
// virtualized compilations are rejected), and back-to-back inferences
// of one model pipeline through the fabric: the measured throughput
// exceeds 1/makespan whenever the arrival process keeps more than one
// inference in flight. Models run on disjoint crossbar pools by
// default; SharedPool co-schedules them on one time-shared pool.
// Compilations go through the Engine's cache, so a stream evaluation
// warms the same entries ordinary requests use. With WithValidation the
// full stream is revalidated against the engine-independent oracle
// (check.Stream) before results are returned.
func (e *Engine) EvaluateStream(ctx context.Context, req StreamRequest) (*StreamResult, error) {
	models, err := req.validate(e.base)
	if err != nil {
		return nil, err
	}
	ctx, cancel := requestCtx(ctx, Request{TimeoutMillis: req.TimeoutMillis})
	defer cancel()

	comps := make([]*Compiled, len(req.Models))
	hits := make([]bool, len(req.Models))
	for i, sm := range req.Models {
		c, hit, err := e.compileCounted(ctx, models[i], sm.request(req).overlay(e.base))
		if err != nil {
			return nil, err
		}
		if c.Virtualized() {
			return nil, fmt.Errorf("clsacim: stream model %q is virtualized (F < PEmin); streaming requires full weight residency", sm.Model)
		}
		comps[i], hits[i] = c, hit
	}
	tMVM := comps[0].cfg.TMVMNanos
	for i, c := range comps {
		if c.cfg.TMVMNanos != tMVM {
			return nil, fmt.Errorf("clsacim: stream models disagree on tMVM (%g ns vs %g ns); co-scheduled models share one fabric clock",
				tMVM, comps[i].cfg.TMVMNanos)
		}
	}

	specs := make([]stream.ModelSpec, len(comps))
	fabric := 0
	for i, c := range comps {
		mode := c.normalizeMode(req.Mode)
		base := 0
		if !req.SharedPool {
			base = fabric
			fabric += c.mapped.F
		} else if c.mapped.F > fabric {
			fabric = c.mapped.F
		}
		specs[i] = stream.ModelSpec{
			Name:    c.ModelName,
			Graph:   c.depGraph,
			Mapping: c.mapped,
			Policy:  mode.p,
			Edge:    c.schedOptions(mode).EdgeCost,
			PEBase:  base,
		}
	}

	seq, err := modelMix(req)
	if err != nil {
		return nil, err
	}
	w := stream.Workload{FabricPEs: fabric, Models: specs, Sequence: seq}
	cyclesPerSec := 1e9 / tMVM
	switch req.Arrival.kind() {
	case arrivalClosed:
		w.Concurrency = req.Arrival.Concurrency
		if w.Concurrency == 0 {
			w.Concurrency = 1
		}
	case arrivalPoisson:
		w.Arrivals, err = stream.PoissonArrivals(req.Arrival.Seed, req.Inferences,
			cyclesPerSec/req.Arrival.RatePerSec)
	case arrivalBursty:
		w.Arrivals, err = stream.BurstyArrivals(req.Arrival.Seed, req.Inferences, stream.BurstyConfig{
			MeanInterarrival: cyclesPerSec / req.Arrival.RatePerSec,
			MeanOnCycles:     req.Arrival.MeanOnMillis * 1e6 / tMVM,
			MeanOffCycles:    req.Arrival.MeanOffMillis * 1e6 / tMVM,
		})
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res, err := stream.Run(w, stream.Options{MaxInFlight: req.MaxInFlight, DropTimelines: !e.validate, Context: ctx})
	if err != nil {
		return nil, err
	}
	if e.validate {
		if err := checkStream(w, res, req.MaxInFlight); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out, err := e.assembleStreamResult(ctx, req, comps, hits, res, tMVM, fabric)
	if err != nil {
		return nil, err
	}
	e.streamEvals.Add(1)
	// Count served jobs, not requested inferences: the two agree on
	// complete runs, and StreamResult.Inferences and the serve layer's
	// per-request counter both report served jobs.
	e.streamInfs.Add(int64(out.Inferences))
	return out, nil
}

// checkStream revalidates a stream run against check.Stream: every
// per-job timeline plus the cross-inference invariants, from scratch.
func checkStream(w stream.Workload, res *stream.Result, maxInFlight int) error {
	ms := make([]check.StreamModel, len(w.Models))
	for mi, s := range w.Models {
		ms[mi] = check.StreamModel{Graph: s.Graph, Mapping: s.Mapping,
			Policy: s.Policy, Edge: s.Edge, PEBase: s.PEBase}
	}
	infs := make([]check.StreamInference, len(res.Jobs))
	for j, js := range res.Jobs {
		infs[j] = check.StreamInference{Model: js.Model, Arrival: js.Arrival, Timeline: res.Timelines[j]}
	}
	if err := check.Stream(ms, infs, check.StreamOptions{MaxInFlight: maxInFlight}); err != nil {
		return fmt.Errorf("clsacim: stream failed validation: %w", err)
	}
	return nil
}

// modelMix expands the request into the per-job model sequence: a
// single-model stream is trivially uniform; a multi-model stream draws
// from the weights with a seed derived from the arrival seed so both
// traces stay reproducible.
func modelMix(req StreamRequest) ([]int, error) {
	if len(req.Models) == 1 {
		return make([]int, req.Inferences), nil
	}
	weights := make([]float64, len(req.Models))
	anySet := false
	for i, sm := range req.Models {
		weights[i] = sm.Weight
		if sm.Weight > 0 {
			anySet = true
		}
	}
	if !anySet {
		for i := range weights {
			weights[i] = 1
		}
	}
	return stream.ModelSequence(req.Arrival.Seed^0x6d697865726d6978, req.Inferences, weights)
}

func (e *Engine) assembleStreamResult(ctx context.Context, req StreamRequest, comps []*Compiled, hits []bool, res *stream.Result, tMVM float64, fabric int) (*StreamResult, error) {
	elapsed := metrics.LatencyNanos(res.MakespanCycles, tMVM)
	out := &StreamResult{
		Inferences:     len(res.Jobs),
		MakespanCycles: res.MakespanCycles,
		ElapsedNanos:   elapsed,
		FabricPEs:      fabric,
		Jobs:           make([]StreamJob, len(res.Jobs)),
		QueueDepth:     make([]StreamQueueSample, len(res.Queue)),
	}
	if elapsed > 0 {
		out.ThroughputPerSec = float64(len(res.Jobs)) / elapsed * 1e9
	}
	var lat []float64
	perModel := make([][]float64, len(comps))
	for j, js := range res.Jobs {
		l := metrics.LatencyNanos(js.End-js.Arrival, tMVM)
		lat = append(lat, l)
		perModel[js.Model] = append(perModel[js.Model], l)
		out.Jobs[j] = StreamJob{
			Model:        comps[js.Model].ModelName,
			ArrivalCycle: js.Arrival,
			StartCycle:   js.Start,
			EndCycle:     js.End,
			LatencyNanos: l,
		}
	}
	out.Latency = latencyStats(lat)
	for i, qs := range res.Queue {
		out.QueueDepth[i] = StreamQueueSample{Cycle: qs.Time, Depth: qs.Depth}
	}
	var busy int64
	out.UtilizationPerPE = make([]float64, len(res.PEActive))
	for p, a := range res.PEActive {
		busy += a
		if res.MakespanCycles > 0 {
			out.UtilizationPerPE[p] = float64(a) / float64(res.MakespanCycles)
		}
	}
	if res.MakespanCycles > 0 && fabric > 0 {
		out.PEUtilization = float64(busy) / (float64(fabric) * float64(res.MakespanCycles))
	}
	// Each model's single-inference reference is where Stage III/IV runs
	// for its compilation, so the stream's partial hits are counted here.
	for i, c := range comps {
		rep, err := e.scheduleCounted(ctx, c, hits[i], req.Mode)
		if err != nil {
			return nil, err
		}
		mr := StreamModelResult{
			Model:                c.ModelName,
			Inferences:           len(perModel[i]),
			SingleMakespanCycles: rep.MakespanCycles,
			Latency:              latencyStats(perModel[i]),
		}
		if rep.LatencyNanos > 0 {
			mr.SingleRatePerSec = 1e9 / rep.LatencyNanos
		}
		if elapsed > 0 {
			mr.ThroughputPerSec = float64(len(perModel[i])) / elapsed * 1e9
		}
		out.PerModel = append(out.PerModel, mr)
	}
	return out, nil
}

// latencyStats computes nearest-rank percentiles over a latency sample.
func latencyStats(lat []float64) LatencyStats {
	if len(lat) == 0 {
		return LatencyStats{}
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return LatencyStats{
		P50Nanos:  rank(0.50),
		P95Nanos:  rank(0.95),
		P99Nanos:  rank(0.99),
		MeanNanos: sum / float64(len(s)),
		MaxNanos:  s[len(s)-1],
	}
}
