// Command clsaload drives mixed traffic against a clsaserved daemon
// through the resilient client (retries, backoff, circuit breaker) and
// reports what survived. Its purpose is chaos smoke testing: point it
// at a daemon running with -faults and assert that the client-side
// resilience machinery turns an unreliable daemon into a usable
// service.
//
//	clsaserved -addr :8080 -validate -faults "seed=7,error=0.05,panic=0.02,drop=0.02,latency=0.2:1ms:20ms" &
//	clsaload -addr http://127.0.0.1:8080 -duration 15s -concurrency 4
//
// The traffic mix covers every endpoint: single evaluations across
// models and scheduling modes, batches, streamed multi-inference
// requests, deadline-pressured evaluations (1ms timeout), and
// stats/models reads. Failures are classified: temporary errors that
// outlived the retry budget (shed, injected faults, open breaker) are
// tolerated and counted; a hard failure — a non-retryable API error
// such as a 400 or an unknown model — fails the run, because the
// resilience layer must never convert good requests into client
// mistakes. Exit status 0 means every completed call was coherent and
// at least -min-success of them succeeded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	clsacim "clsacim"
	"clsacim/client"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	duration := flag.Duration("duration", 15*time.Second, "how long to drive traffic")
	concurrency := flag.Int("concurrency", 4, "parallel workers")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the daemon to become healthy")
	minSuccess := flag.Int("min-success", 1, "minimum successful calls for exit 0")
	seed := flag.Uint64("seed", 1, "retry jitter seed")
	flag.Parse()

	if err := run(*addr, *duration, *concurrency, *wait, *minSuccess, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "clsaload:", err)
		os.Exit(1)
	}
}

// counters aggregates worker outcomes.
type counters struct {
	calls     atomic.Int64
	successes atomic.Int64
	soft      atomic.Int64 // temporary errors that outlived the retries
	hard      atomic.Int64
}

func run(addr string, duration time.Duration, concurrency int, wait time.Duration, minSuccess int, seed uint64) error {
	if concurrency <= 0 {
		return fmt.Errorf("invalid concurrency %d", concurrency)
	}
	c, err := client.New(addr,
		client.WithRetry(client.RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    time.Second,
			Budget:      50,
			Seed:        seed,
		}),
		client.WithCircuitBreaker(10, 500*time.Millisecond),
	)
	if err != nil {
		return err
	}

	// The daemon may still be binding its listener (CI starts both
	// processes back to back); poll health before driving load.
	waitCtx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	for {
		if err := c.Health(waitCtx); err == nil {
			break
		}
		select {
		case <-waitCtx.Done():
			return fmt.Errorf("daemon at %s not healthy after %v", addr, wait)
		case <-time.After(100 * time.Millisecond):
		}
	}

	ctx, stop := context.WithTimeout(context.Background(), duration)
	defer stop()
	var cnt counters
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(ctx, c, w, &cnt)
		}(w)
	}
	wg.Wait()

	log.Printf("clsaload: %d calls: %d ok, %d temporary failures, %d hard failures",
		cnt.calls.Load(), cnt.successes.Load(), cnt.soft.Load(), cnt.hard.Load())
	if stats, err := c.Stats(context.Background()); err == nil {
		log.Printf("clsaload: daemon: %d requests, %d errors, %d panics recovered, %d shed",
			stats.Server.Requests, stats.Server.Errors, stats.Server.Panics, stats.Server.Shed)
	}
	if n := cnt.hard.Load(); n > 0 {
		return fmt.Errorf("%d hard failures", n)
	}
	if n := cnt.successes.Load(); n < int64(minSuccess) {
		return fmt.Errorf("only %d successful calls (want >= %d)", n, minSuccess)
	}
	return nil
}

// worker drives one request loop until ctx expires, rotating through
// the traffic mix.
func worker(ctx context.Context, c *client.Client, w int, cnt *counters) {
	models := []string{"tinyconvnet", "tinybranchnet", "tinymlp", "tinydwnet"}
	modes := []clsacim.ScheduleMode{clsacim.ModeLayerByLayer, clsacim.ModeCrossLayer, clsacim.ModeWindow(2)}
	for i := w; ctx.Err() == nil; i++ {
		model := models[i%len(models)]
		mode := modes[i%len(modes)]
		var err error
		switch i % 8 {
		case 0: // batch across models
			var batch []clsacim.Request
			for _, m := range models[:3] {
				batch = append(batch, clsacim.Request{Model: m, Mode: mode})
			}
			res, berr := c.EvaluateBatch(ctx, batch)
			err = berr
			if berr == nil {
				for _, r := range res {
					if r.Error != "" {
						err = fmt.Errorf("batch item: %s", r.Error)
						break
					}
				}
			}
		case 1: // streamed multi-inference
			_, err = c.Stream(ctx, clsacim.StreamRequest{
				Models:     []clsacim.StreamModel{{Model: model}},
				Inferences: 4,
				Mode:       clsacim.ModeLayerByLayer,
			})
		case 2: // deadline pressure: a blown deadline is a 504
			_, err = c.Evaluate(ctx, clsacim.Request{Model: model, Mode: mode, TimeoutMillis: 1})
		case 3: // reads
			if i%16 == 3 {
				_, err = c.Stats(ctx)
			} else {
				_, err = c.Models(ctx)
			}
		default: // single evaluation
			_, err = c.Evaluate(ctx, clsacim.Request{Model: model, Mode: mode})
		}
		cnt.calls.Add(1)
		switch {
		case err == nil:
			cnt.successes.Add(1)
		case isHard(err):
			cnt.hard.Add(1)
			log.Printf("clsaload: hard failure: %v", err)
		default:
			cnt.soft.Add(1)
		}
	}
}

// isHard classifies a failure that survived the client's retries.
// Temporary API errors, an open breaker, transport noise, and context
// expiry (including the driver's own deadline) are the expected
// residue of chaos; a non-retryable API error means a request was
// mangled somewhere and fails the run. A deadline-pressured request
// that timed out server-side reports 504 deadline_exceeded, which is
// temporary and so stays soft.
func isHard(err error) bool {
	if errors.Is(err, client.ErrCircuitOpen) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var api *client.APIError
	if errors.As(err, &api) {
		return !api.Temporary()
	}
	// Transport errors (resets, drops mid-body, refused during
	// restarts) are the faults being injected.
	return false
}
