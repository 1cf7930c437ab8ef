package serve

import "clsacim"

// This file defines the JSON wire schema of the service. Requests reuse
// clsacim.Request and clsacim.StreamRequest verbatim, and stream
// responses clsacim.StreamResult (their json tags are the wire format);
// the other responses get dedicated types here so the schema stays
// stable and snake_case even if the in-process result structs grow
// fields. The client package decodes into these same types, so a Go
// caller of the HTTP API never sees the encoding.

// Report is the wire form of one scheduling outcome (clsacim.Report):
// the paper's per-configuration metrics.
type Report struct {
	// Model is the evaluated model's registered name.
	Model string `json:"model"`
	// Mode is the scheduling mode's wire name: "lbl", "xinf", or "x<K>".
	Mode string `json:"mode"`
	// F is the PE count of the compiled architecture (PEmin + x).
	F int `json:"f"`
	// PEMin is the minimum PE count storing every weight once.
	PEMin int `json:"pe_min"`
	// MakespanCycles is the schedule length in MVM cycles.
	MakespanCycles int64 `json:"makespan_cycles"`
	// LatencyNanos is MakespanCycles * tMVM.
	LatencyNanos float64 `json:"latency_nanos"`
	// Utilization is paper Eq. 2, in [0, 1].
	Utilization float64 `json:"utilization"`
	// Duplication is the applied weight-duplication vector d in plan
	// order.
	Duplication []int `json:"duplication,omitempty"`
	// EnergyMicroJoule is the dynamic energy estimate (0 unless the
	// engine configures EnergyPerMVMNanoJ).
	EnergyMicroJoule float64 `json:"energy_uj,omitempty"`
	// ReloadCycles is the crossbar-programming time included in the
	// makespan (weight virtualization only).
	ReloadCycles int64 `json:"reload_cycles,omitempty"`
}

// Evaluation is the wire form of clsacim.Evaluation: one configuration
// measured against the paper's layer-by-layer reference.
type Evaluation struct {
	Baseline Report `json:"baseline"`
	Result   Report `json:"result"`
	// Speedup is Baseline.MakespanCycles / Result.MakespanCycles.
	Speedup float64 `json:"speedup"`
	// UtilizationGain is Result.Utilization / Baseline.Utilization.
	UtilizationGain float64 `json:"utilization_gain"`
	// Eq3Speedup is the paper's Eq. 3 estimate from the utilizations.
	Eq3Speedup float64 `json:"eq3_speedup"`
}

// BatchRequest is the body of POST /v1/evaluate/batch.
type BatchRequest struct {
	Requests []clsacim.Request `json:"requests"`
}

// BatchResult is one positional outcome of a batch: exactly one of
// Evaluation and Error is set.
type BatchResult struct {
	Request    clsacim.Request `json:"request"`
	Evaluation *Evaluation     `json:"evaluation,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/evaluate/batch:
// results are positionally aligned with the submitted requests, and
// per-request failures land in their slot's Error instead of failing
// the batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// ModelsResponse is the body of GET /v1/models: every model name a
// Request can reference on this daemon (builtin and registered), plus
// the registered duplication solvers and the scheduling-mode family.
type ModelsResponse struct {
	Models  []string `json:"models"`
	Solvers []string `json:"solvers"`
	// Modes documents the accepted scheduling-mode names.
	Modes []string `json:"modes"`
}

// The stream schema is clsacim.StreamResult itself, whose json tags
// are the wire format; the aliases keep the serve-side names.
type (
	// StreamResponse is the body of a successful POST /v1/stream.
	StreamResponse = clsacim.StreamResult
	// StreamLatency is the per-inference sojourn-time distribution in
	// nanoseconds.
	StreamLatency = clsacim.LatencyStats
	// StreamJob is one served inference's lifecycle.
	StreamJob = clsacim.StreamJob
	// StreamQueueSample is one point of the queue-depth trace.
	StreamQueueSample = clsacim.StreamQueueSample
	// StreamModelResult is the per-model slice of a streamed evaluation.
	StreamModelResult = clsacim.StreamModelResult
)

// EngineStats is the engine block of GET /v1/stats: clsacim.Stats,
// whose json tags are the wire format.
type EngineStats = clsacim.Stats

// ServerStats counts HTTP-level activity since the server started.
type ServerStats struct {
	// Requests counts every handled request, including failed ones.
	Requests int64 `json:"requests"`
	// Errors counts requests answered with a 4xx/5xx status.
	Errors int64 `json:"errors"`
	// BatchItems counts individual evaluations submitted through the
	// batch endpoint.
	BatchItems int64 `json:"batch_items"`
	// InFlight is the number of requests currently being handled.
	InFlight int64 `json:"in_flight"`
	// Panics counts handler panics converted into 500 responses by the
	// recovery middleware. Nonzero means a bug (or injected fault) —
	// the daemon survived it, but it should be investigated.
	Panics int64 `json:"panics"`
	// Shed counts requests rejected by admission gates (429/503 with
	// Retry-After), summed across classes; the per-class split is in
	// Admission.
	Shed int64 `json:"shed"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Admission reports each configured admission gate; absent when no
	// gates are configured.
	Admission []AdmissionClassStats `json:"admission,omitempty"`
}

// AdmissionClassStats is one endpoint class's admission accounting.
type AdmissionClassStats struct {
	// Class is "evaluate", "batch", or "stream".
	Class string `json:"class"`
	// MaxConcurrent and MaxQueue echo the configured bounds.
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueue      int `json:"max_queue"`
	// InFlight and Queued are the current occupancy of the gate.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	// Admitted counts requests that got an execution slot; Shed counts
	// requests rejected with 429 (queue full) or 503 (wait expired).
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// StreamStats summarizes streamed evaluations served by this daemon.
// It appears in StatsResponse only after the first POST /v1/stream
// completed successfully; the Last* fields snapshot the most recent
// stream so dashboards can read current throughput and tail latency
// without re-running the evaluation.
type StreamStats struct {
	// Evaluations and Inferences count streamed work served over HTTP
	// (the engine's own counters also include in-process callers).
	Evaluations int64 `json:"evaluations"`
	Inferences  int64 `json:"inferences"`
	// LastModels names the resident models of the most recent stream.
	LastModels []string `json:"last_models"`
	// LastThroughputPerSec is the most recent stream's steady-state
	// serving rate (inferences per second of simulated time).
	LastThroughputPerSec float64 `json:"last_throughput_per_sec"`
	// LastP99Nanos is the most recent stream's p99 sojourn time.
	LastP99Nanos float64 `json:"last_p99_nanos"`
}

// StatsResponse is the body of GET /v1/stats. Stream is omitted until
// the first streamed evaluation has run.
type StatsResponse struct {
	Engine EngineStats  `json:"engine"`
	Server ServerStats  `json:"server"`
	Stream *StreamStats `json:"stream,omitempty"`
}

// Machine-readable error codes carried in ErrorResponse.Code. The
// client package maps them back onto the sentinel errors a local
// Engine would return; the human-readable Error message is not part of
// the contract.
const (
	CodeUnknownModel     = "unknown_model"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeCanceled         = "canceled"
	// CodeInternal marks 500s from recovered handler panics and other
	// unclassified server-side failures. The request itself may well
	// succeed on retry — the client treats it as temporary.
	CodeInternal = "internal"
	// CodeOverloaded marks 429/503 shed responses from the admission
	// gates; Retry-After on the response says when to come back.
	CodeOverloaded = "overloaded"
)

// ErrorResponse is the body of every non-2xx response. Code is set for
// the conditions a caller is expected to branch on (see the Code*
// constants); other failures carry only the message. RequestID repeats
// the response's X-Request-ID header so the envelope alone suffices to
// correlate a failure with the daemon's logs.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// wireReport converts an in-process report.
func wireReport(r *clsacim.Report) Report {
	return Report{
		Model:            r.Model,
		Mode:             r.Mode.Name(),
		F:                r.F,
		PEMin:            r.PEmin,
		MakespanCycles:   r.MakespanCycles,
		LatencyNanos:     r.LatencyNanos,
		Utilization:      r.Utilization,
		Duplication:      r.Duplication,
		EnergyMicroJoule: r.EnergyMicroJoule,
		ReloadCycles:     r.ReloadCycles,
	}
}

// wireEvaluation converts an in-process evaluation.
func wireEvaluation(ev *clsacim.Evaluation) *Evaluation {
	return &Evaluation{
		Baseline:        wireReport(ev.Baseline),
		Result:          wireReport(ev.Result),
		Speedup:         ev.Speedup,
		UtilizationGain: ev.UtilizationGain,
		Eq3Speedup:      ev.Eq3Speedup,
	}
}
