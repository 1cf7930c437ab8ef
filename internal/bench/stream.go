package bench

import (
	"context"
	"fmt"
	"io"

	clsacim "clsacim"
)

// StreamPoint is one measured streaming scenario: a multi-inference
// workload served over the simulated fabric, with the back-to-back
// serial rate of the same request mix as the reference.
type StreamPoint struct {
	Scenario string   `json:"scenario"`
	Models   []string `json:"models"`
	// Mapping is "-" (no duplication) or "wdup+<x>", as in Point.
	Mapping string `json:"mapping"`
	Mode    string `json:"mode"`
	// Arrival is the arrival-process kind ("closed", "poisson",
	// "bursty"); Concurrency is the closed-loop population.
	Arrival     string `json:"arrival"`
	Concurrency int    `json:"concurrency,omitempty"`
	SharedPool  bool   `json:"shared_pool,omitempty"`
	Inferences  int    `json:"inferences"`
	// MakespanCycles is the simulated time to drain the stream.
	MakespanCycles int64 `json:"makespan_cycles"`
	// ThroughputPerSec is the steady-state serving rate;
	// SingleRatePerSec is the serve-one-at-a-time rate of the same mix
	// (1/makespan aggregated over the served jobs), and Gain their
	// ratio — the pipelining benefit.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	SingleRatePerSec float64 `json:"single_rate_per_sec"`
	Gain             float64 `json:"gain"`
	P50Nanos         float64 `json:"p50_nanos"`
	P99Nanos         float64 `json:"p99_nanos"`
	PEUtilization    float64 `json:"pe_utilization"`
}

// StreamScenarios are the streaming workloads of the BENCH_stream
// experiment: a closed-loop concurrency sweep establishing how deep the
// fabric pipelines, one open-loop Poisson point, and a shared-pool
// two-model co-scheduling point. The sweep uses the paper's weight
// duplication (wdup+32 single model, wdup+16 shared): without
// duplication the dominant layer's single replica is the flow-shop
// bottleneck and streamed throughput stays at 1/makespan; duplication
// spreads that stage, which is what lets back-to-back inferences
// pipeline. Rates for the open-loop point are
// derived from the measured single-inference rate, so the scenario list
// stays meaningful across granularities.
var StreamScenarios = []struct {
	Name        string
	Models      []string
	X           int
	Wdup        bool
	Arrival     string
	Concurrency int
	Shared      bool
}{
	{"closed-c1", []string{"tinyyolov4"}, 32, true, "closed", 1, false},
	{"closed-c2", []string{"tinyyolov4"}, 32, true, "closed", 2, false},
	{"closed-c4", []string{"tinyyolov4"}, 32, true, "closed", 4, false},
	{"closed-c8", []string{"tinyyolov4"}, 32, true, "closed", 8, false},
	{"poisson-2x", []string{"tinyyolov4"}, 32, true, "poisson", 0, false},
	{"shared-2model", []string{"tinyyolov4", "tinyyolov3"}, 16, true, "closed", 4, true},
}

// streamInferences is the per-scenario stream length: long enough for
// the pipeline to reach steady state, short enough that the full sweep
// stays a seconds-scale experiment at finest granularity.
const streamInferences = 16

// RunStream measures every StreamScenarios entry under xinf scheduling.
func (h *Harness) RunStream() ([]StreamPoint, error) {
	var out []StreamPoint
	// The single-inference rate anchors the open-loop arrival rate; it
	// comes from the first scenario's result rather than a separate run.
	var singleRate float64
	for _, sc := range StreamScenarios {
		req := clsacim.StreamRequest{
			Inferences: streamInferences,
			Mode:       clsacim.ModeCrossLayer,
			SharedPool: sc.Shared,
		}
		for _, m := range sc.Models {
			req.Models = append(req.Models, clsacim.StreamModel{
				Model:             m,
				ExtraPEs:          sc.X,
				WeightDuplication: sc.Wdup,
				Config:            &h.Base,
			})
		}
		switch sc.Arrival {
		case "closed":
			req.Arrival = clsacim.ArrivalProcess{Kind: "closed", Concurrency: sc.Concurrency}
		case "poisson":
			if singleRate <= 0 {
				return nil, fmt.Errorf("bench: stream scenario %s needs a measured single rate first", sc.Name)
			}
			// Offered load at twice the serial capacity: the open loop
			// only keeps up because inferences pipeline.
			req.Arrival = clsacim.ArrivalProcess{Kind: "poisson", Seed: 42, RatePerSec: 2 * singleRate}
		default:
			return nil, fmt.Errorf("bench: stream scenario %s has unknown arrival %q", sc.Name, sc.Arrival)
		}
		res, err := h.eng.EvaluateStream(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", sc.Name, err)
		}
		if singleRate == 0 && len(res.PerModel) > 0 {
			singleRate = res.PerModel[0].SingleRatePerSec
		}
		p := StreamPoint{
			Scenario:         sc.Name,
			Models:           sc.Models,
			Mapping:          "-",
			Mode:             clsacim.ModeCrossLayer.Name(),
			Arrival:          sc.Arrival,
			Concurrency:      sc.Concurrency,
			SharedPool:       sc.Shared,
			Inferences:       res.Inferences,
			MakespanCycles:   res.MakespanCycles,
			ThroughputPerSec: res.ThroughputPerSec,
			SingleRatePerSec: serialRate(res),
			P50Nanos:         res.Latency.P50Nanos,
			P99Nanos:         res.Latency.P99Nanos,
			PEUtilization:    res.PEUtilization,
		}
		if sc.Wdup {
			p.Mapping = fmt.Sprintf("wdup+%d", sc.X)
		}
		if p.SingleRatePerSec > 0 {
			p.Gain = p.ThroughputPerSec / p.SingleRatePerSec
		}
		out = append(out, p)
	}
	return out, nil
}

// serialRate is the serve-one-at-a-time rate of the mix a stream
// actually served: total jobs over the summed single-inference
// latencies. Throughput above this rate is pipelining gain.
func serialRate(res *clsacim.StreamResult) float64 {
	var serialNanos float64
	total := 0
	for _, pm := range res.PerModel {
		if pm.SingleRatePerSec <= 0 {
			return 0
		}
		serialNanos += float64(pm.Inferences) * 1e9 / pm.SingleRatePerSec
		total += pm.Inferences
	}
	if serialNanos <= 0 {
		return 0
	}
	return float64(total) / serialNanos * 1e9
}

// PrintStreamPoints writes already-measured streaming points.
func PrintStreamPoints(w io.Writer, points []StreamPoint) error {
	fmt.Fprintln(w, "Stream: multi-inference serving under xinf — throughput vs the serial rate")
	tw := table(w)
	fmt.Fprintln(tw, "Scenario\tModels\tMapping\tArrival\tInferences\tThroughput (inf/s)\tSerial rate (inf/s)\tGain\tp99 (ms)\tPE util")
	for _, p := range points {
		models := ""
		for i, m := range p.Models {
			if i > 0 {
				models += "+"
			}
			models += m
		}
		arrival := p.Arrival
		if p.Arrival == "closed" {
			arrival = fmt.Sprintf("closed c=%d", p.Concurrency)
		}
		if p.SharedPool {
			arrival += " shared"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.1f\t%.1f\t%.2fx\t%.3f\t%.2f%%\n",
			p.Scenario, models, p.Mapping, arrival, p.Inferences,
			p.ThroughputPerSec, p.SingleRatePerSec, p.Gain, p.P99Nanos/1e6, p.PEUtilization*100)
	}
	return tw.Flush()
}
