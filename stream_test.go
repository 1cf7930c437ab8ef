package clsacim

import (
	"context"
	"strings"
	"testing"
)

// coarseStreamEngine keeps stream tests fast: coarse Stage I
// granularity, full validation through the engine-independent
// check.Stream oracle.
func coarseStreamEngine(t *testing.T) *Engine {
	t.Helper()
	return MustNew(WithConfig(Config{TargetSets: 26}), WithValidation())
}

// The acceptance criterion of the subsystem: pipelined steady-state
// throughput strictly greater than 1/makespan of a single inference
// for tinyyolov4 under xinf.
func TestEvaluateStreamPipelinedThroughputBeatsSingleRate(t *testing.T) {
	e := coarseStreamEngine(t)
	res, err := e.EvaluateStream(context.Background(), StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4"}},
		Inferences: 8,
		Mode:       ModeCrossLayer,
		Arrival:    ArrivalProcess{Kind: "closed", Concurrency: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerModel) != 1 {
		t.Fatalf("got %d per-model results, want 1", len(res.PerModel))
	}
	pm := res.PerModel[0]
	if pm.SingleRatePerSec <= 0 {
		t.Fatalf("no single-inference reference rate: %+v", pm)
	}
	if res.ThroughputPerSec <= pm.SingleRatePerSec {
		t.Fatalf("streamed throughput %.2f/s not above single-inference rate %.2f/s",
			res.ThroughputPerSec, pm.SingleRatePerSec)
	}
	if res.Latency.P99Nanos < res.Latency.P50Nanos || res.Latency.MaxNanos < res.Latency.P99Nanos {
		t.Fatalf("latency percentiles out of order: %+v", res.Latency)
	}
	if res.PEUtilization <= 0 || res.PEUtilization > 1 {
		t.Fatalf("fabric utilization %g out of range", res.PEUtilization)
	}
	if len(res.UtilizationPerPE) != res.FabricPEs {
		t.Fatalf("per-PE utilization has %d entries for %d PEs", len(res.UtilizationPerPE), res.FabricPEs)
	}
	if len(res.Jobs) != 8 || res.Inferences != 8 {
		t.Fatalf("served %d/%d inferences", len(res.Jobs), res.Inferences)
	}
}

// With a single inference in flight the stream degenerates to serial
// execution and throughput equals the single-inference rate.
func TestEvaluateStreamSerialMatchesSingleRate(t *testing.T) {
	e := coarseStreamEngine(t)
	res, err := e.EvaluateStream(context.Background(), StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4"}},
		Inferences: 3,
		Mode:       ModeCrossLayer,
		Arrival:    ArrivalProcess{Concurrency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pm := res.PerModel[0]
	if res.MakespanCycles != 3*pm.SingleMakespanCycles {
		t.Fatalf("serial stream makespan %d, want %d", res.MakespanCycles, 3*pm.SingleMakespanCycles)
	}
}

// Two models co-scheduled on one shared pool must pass the full
// cross-inference invariant set (WithValidation wires check.Stream
// through the stream path).
func TestEvaluateStreamSharedPoolTwoModels(t *testing.T) {
	e := coarseStreamEngine(t)
	res, err := e.EvaluateStream(context.Background(), StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4"}, {Model: "tinyyolov3"}},
		Inferences: 6,
		Mode:       ModeCrossLayer,
		Arrival:    ArrivalProcess{Kind: "poisson", Seed: 11, RatePerSec: 2000},
		SharedPool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pm := range res.PerModel {
		total += pm.Inferences
	}
	if total != 6 {
		t.Fatalf("per-model inference counts sum to %d, want 6", total)
	}
	if len(res.QueueDepth) == 0 {
		t.Fatal("no queue-depth trace")
	}
	// Disjoint pools must also validate and use the summed fabric.
	res2, err := e.EvaluateStream(context.Background(), StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4"}, {Model: "tinyyolov3"}},
		Inferences: 4,
		Mode:       ModeCrossLayer,
		Arrival:    ArrivalProcess{Kind: "bursty", Seed: 5, RatePerSec: 4000, MeanOnMillis: 2, MeanOffMillis: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.FabricPEs <= res.FabricPEs {
		t.Fatalf("disjoint fabric %d not larger than shared fabric %d", res2.FabricPEs, res.FabricPEs)
	}
}

// The CI smoke configuration: a short closed-loop run under full
// validation (also exercised with -race by the workflow).
func TestEvaluateStreamSmoke(t *testing.T) {
	e := coarseStreamEngine(t)
	res, err := e.EvaluateStream(context.Background(), StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4"}},
		Inferences: 32,
		Mode:       ModeCrossLayer,
		Arrival:    ArrivalProcess{Kind: "closed", Concurrency: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferences != 32 {
		t.Fatalf("served %d inferences, want 32", res.Inferences)
	}
	st := e.Stats()
	if st.StreamEvaluations != 1 || st.StreamInferences != 32 {
		t.Fatalf("stream counters %d/%d, want 1/32", st.StreamEvaluations, st.StreamInferences)
	}
}

func TestEvaluateStreamGateBoundsConcurrency(t *testing.T) {
	e := coarseStreamEngine(t)
	req := StreamRequest{
		Models:      []StreamModel{{Model: "tinyyolov4"}},
		Inferences:  4,
		Mode:        ModeCrossLayer,
		Arrival:     ArrivalProcess{Concurrency: 4},
		MaxInFlight: 1,
	}
	res, err := e.EvaluateStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	pm := res.PerModel[0]
	if res.MakespanCycles != 4*pm.SingleMakespanCycles {
		t.Fatalf("gated stream makespan %d, want serial %d", res.MakespanCycles, 4*pm.SingleMakespanCycles)
	}
}

func TestEvaluateStreamRejectsBadRequests(t *testing.T) {
	e := coarseStreamEngine(t)
	cases := []struct {
		name string
		req  StreamRequest
		want string
	}{
		{"no models", StreamRequest{Inferences: 1}, "no models"},
		{"unknown model", StreamRequest{Models: []StreamModel{{Model: "nope"}}, Inferences: 1}, "unknown model"},
		{"no inferences", StreamRequest{Models: []StreamModel{{Model: "tinyyolov4"}}}, "positive inference count"},
		{"bad arrival", StreamRequest{Models: []StreamModel{{Model: "tinyyolov4"}}, Inferences: 1,
			Arrival: ArrivalProcess{Kind: "zipf"}}, "unknown arrival kind"},
		{"bad rate", StreamRequest{Models: []StreamModel{{Model: "tinyyolov4"}}, Inferences: 1,
			Arrival: ArrivalProcess{Kind: "poisson"}}, "positive rate"},
		{"negative gate", StreamRequest{Models: []StreamModel{{Model: "tinyyolov4"}}, Inferences: 1,
			MaxInFlight: -1}, "negative MaxInFlight"},
	}
	for _, tc := range cases {
		if _, err := e.EvaluateStream(context.Background(), tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// Virtualized compilations cannot stream: weights must stay resident.
func TestEvaluateStreamRejectsVirtualized(t *testing.T) {
	e := MustNew(WithConfig(Config{TargetSets: 26, WeightVirtualization: true}))
	_, err := e.EvaluateStream(context.Background(), StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4", TotalPEs: 64}},
		Inferences: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "weight residency") {
		t.Fatalf("got %v, want a residency error", err)
	}
}

// Identical requests must produce identical results (deterministic
// arrivals, deterministic engine).
func TestEvaluateStreamDeterministic(t *testing.T) {
	e := coarseStreamEngine(t)
	req := StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4"}},
		Inferences: 6,
		Mode:       ModeWindow(2),
		Arrival:    ArrivalProcess{Kind: "poisson", Seed: 77, RatePerSec: 5000},
	}
	a, err := e.EvaluateStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EvaluateStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanCycles != b.MakespanCycles || a.Latency != b.Latency {
		t.Fatalf("nondeterministic stream: %v vs %v", a.MakespanCycles, b.MakespanCycles)
	}
	for j := range a.Jobs {
		if a.Jobs[j] != b.Jobs[j] {
			t.Fatalf("job %d differs: %+v vs %+v", j, a.Jobs[j], b.Jobs[j])
		}
	}
}

// Stream accounting regression: the engine's StreamInferences counter,
// StreamResult.Inferences, and the served job list must agree, and
// stream compilations must feed the same hit/partial-hit accounting as
// ordinary evaluations.
func TestEvaluateStreamStatsCountServedJobs(t *testing.T) {
	e := coarseStreamEngine(t)
	req := StreamRequest{
		Models:     []StreamModel{{Model: "tinyyolov4"}},
		Inferences: 6,
		Mode:       ModeCrossLayer,
		Arrival:    ArrivalProcess{Kind: "closed", Concurrency: 2},
	}
	res, err := e.EvaluateStream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if res.Inferences != len(res.Jobs) {
		t.Errorf("result inferences %d != served jobs %d", res.Inferences, len(res.Jobs))
	}
	if s.StreamInferences != int64(res.Inferences) {
		t.Errorf("engine StreamInferences %d != result inferences %d", s.StreamInferences, res.Inferences)
	}
	if s.StreamEvaluations != 1 {
		t.Errorf("StreamEvaluations = %d, want 1", s.StreamEvaluations)
	}
	// First stream compiled fresh: no hits yet.
	if s.CacheHits != 0 || s.PartialHits != 0 {
		t.Errorf("after cold stream: hits=%d partial=%d, want 0/0", s.CacheHits, s.PartialHits)
	}
	// A second stream over the same key and mode is a full cache hit:
	// the first stream cached the mode's timeline through its
	// single-rate reference schedule.
	if _, err := e.EvaluateStream(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s2 := e.Stats()
	if s2.CacheHits != 1 || s2.PartialHits != 0 {
		t.Errorf("after warm stream: hits=%d partial=%d, want 1/0", s2.CacheHits, s2.PartialHits)
	}
	if s2.StreamInferences != 2*int64(res.Inferences) {
		t.Errorf("StreamInferences = %d after two streams of %d", s2.StreamInferences, res.Inferences)
	}
	// Streaming the same key under a new mode is a partial hit: cached
	// compile, uncached timeline — the accounting Evaluate uses, which
	// EvaluateStream bypassed before routing through compileCounted.
	lbl := req
	lbl.Mode = ModeLayerByLayer
	if _, err := e.EvaluateStream(context.Background(), lbl); err != nil {
		t.Fatal(err)
	}
	if s3 := e.Stats(); s3.CacheHits != 2 || s3.PartialHits != 1 {
		t.Errorf("after new-mode stream: hits=%d partial=%d, want 2/1", s3.CacheHits, s3.PartialHits)
	}
}
