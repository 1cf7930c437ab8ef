package clsacim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// tightRequest is a request whose 1ms deadline cannot cover a cold
// compile.
func tightRequest() Request {
	return Request{Model: "mobilenetv1", Mode: ModeCrossLayer, TimeoutMillis: 1}
}

func TestTightDeadlineWithoutOptInStillFails(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Evaluate(context.Background(), tightRequest())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestCallerDeadlineStaysHard(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	// A tight request deadline must not mask an already-cancelled
	// caller context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.Evaluate(ctx, tightRequest())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBatchDegradesPerRequest: deadlines apply per batch item. The
// tight items fail on their own; the deadline-free item sharing their
// compile key gets a full evaluation with a timeline.
func TestBatchDegradesPerRequest(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	relaxed := Request{Model: "mobilenetv1", Mode: ModeCrossLayer}
	out, err := e.EvaluateBatch(context.Background(), []Request{tightRequest(), tightRequest(), relaxed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !errors.Is(out[i].Err, context.DeadlineExceeded) {
			t.Errorf("tight item %d err = %v, want DeadlineExceeded", i, out[i].Err)
		}
	}
	if out[2].Err != nil || out[2].Evaluation == nil {
		t.Fatalf("relaxed item: ev %+v, err %v; want full evaluation", out[2].Evaluation, out[2].Err)
	}
	if spans := out[2].Evaluation.Result.LayerSpans(); len(spans) == 0 {
		t.Error("relaxed item's report has no timeline")
	}
}

// TestStreamDeadlineStopsEventLoop: a warm stream far longer than its
// deadline must stop inside the stream scheduler, not after it, so the
// request gives up its admission slot on time. Both schedulers are
// covered: a disjoint-pool stream takes the job-by-job Stage IV path,
// and a two-model shared pool keeps the event loop.
func TestStreamDeadlineStopsEventLoop(t *testing.T) {
	cases := []struct {
		name   string
		models []StreamModel
		shared bool
	}{
		{"disjoint", []StreamModel{{Model: "tinyyolov4", WeightDuplication: true, ExtraPEs: 32}}, false},
		{"shared-pool", []StreamModel{
			{Model: "tinyyolov4", WeightDuplication: true, ExtraPEs: 16},
			{Model: "tinyyolov3", WeightDuplication: true, ExtraPEs: 16},
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New()
			if err != nil {
				t.Fatal(err)
			}
			req := StreamRequest{
				Models:     tc.models,
				Inferences: 1,
				Mode:       ModeCrossLayer,
				Arrival:    ArrivalProcess{Kind: "closed", Concurrency: 4},
				SharedPool: tc.shared,
			}
			if _, err := e.EvaluateStream(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			req.Inferences, req.TimeoutMillis = 300, 5
			start := time.Now()
			_, err = e.EvaluateStream(context.Background(), req)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if d := time.Since(start); d > 500*time.Millisecond {
				t.Fatalf("a 5 ms deadline returned after %v", d)
			}
		})
	}
}
