package main

import (
	"context"
	"fmt"
	"time"

	"clsacim"
)

// sweep is the researcher's design-space sweep: every operation is a
// fresh Engine evaluating the whole Fig. 6c + Fig. 7 grid in one
// EvaluateBatch, so every compile key misses and the batch's key
// deduplication runs. It never calls sim or serve.
type sweep struct {
	rows []gridRow // seed-shuffled grid
	reqs []clsacim.Request
	seen outcomes
}

func setupSweep(seed int64) (instance, error) {
	s := &sweep{rows: shuffledGrid(seed)}
	for _, r := range s.rows {
		s.reqs = append(s.reqs, r.request())
	}
	// One warm-up batch, so lazy set-up (the model table, the heap) is
	// not charged to the first timed batch.
	if _, _, err := s.batch(nil, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// batch is one operation. It returns the number of failed evaluations
// and the fresh Engine's counters.
func (s *sweep) batch(tr *tracer, i int) (int, clsacim.Stats, error) {
	eng, err := clsacim.New()
	if err != nil {
		return 0, clsacim.Stats{}, err
	}
	sp := tr.start(0, "engine.evaluate_batch", fmt.Sprintf("op%d", i))
	res, err := eng.EvaluateBatch(context.Background(), s.reqs)
	tr.end(sp)
	if err != nil {
		return 0, clsacim.Stats{}, err
	}
	failed := 0
	for j, br := range res {
		if err := checkRow(&s.seen, s.rows[j], br.Evaluation, br.Err); err != nil {
			logFailure(err)
			failed++
		}
	}
	return failed, eng.Stats(), nil
}

func (s *sweep) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	wall, cpu, err := closedLoop(d, func(i int) error {
		failed, st, err := s.batch(tr, i)
		w.attempted += len(s.reqs)
		w.failed += failed
		w.engine = addStats(w.engine, st)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.loop(wall, cpu, fmt.Sprintf("batch of %d evaluations", len(s.reqs)))
	return w, nil
}

func (s *sweep) verify() (*clsacim.Engine, error) {
	return verifyRows(&s.seen)
}

func (s *sweep) replay(rp *replayer, _ map[string]float64) error {
	for i, k := range replayKeys(s.rows) {
		if _, err := rp.request(fmt.Sprintf("key%d", i), k.req, k.modes); err != nil {
			return err
		}
	}
	return nil
}

func (s *sweep) close() error { return nil }

// checkRow compares one evaluation of a grid row against the reference
// makespan and against every earlier answer for the same row.
func checkRow(seen *outcomes, r gridRow, ev *clsacim.Evaluation, err error) error {
	if err != nil {
		return fmt.Errorf("%v: %w", r, err)
	}
	return checkOutcome(seen, r, outcomeOf(ev))
}

func checkOutcome(seen *outcomes, r gridRow, got outcome) error {
	if got.makespan != r.Makespan {
		return fmt.Errorf("%v: makespan %d, reference %d", r, got.makespan, r.Makespan)
	}
	return seen.note(r.String(), got)
}

// verifyRows evaluates every grid row the timed run saw once, on an
// Engine with validation on, and requires the reference makespans and
// the outcomes the timed run returned. The Engine's cache is bounded
// like the daemon's, and the reference grid lists each model's rows
// together, so memory stays flat and each model's baseline compiles once.
func verifyRows(seen *outcomes) (*clsacim.Engine, error) {
	veng, err := clsacim.New(clsacim.WithValidation(), clsacim.WithCacheLimit(cacheLimit))
	if err != nil {
		return nil, err
	}
	for _, r := range ref.Grid {
		want, ok := seen.get(r.String())
		if !ok {
			continue
		}
		ev, err := veng.Evaluate(context.Background(), r.request())
		if err != nil {
			return nil, fmt.Errorf("validated %v: %w", r, err)
		}
		if got := outcomeOf(ev); !got.equal(want) || got.makespan != r.Makespan {
			return nil, fmt.Errorf("validated %v: %v, timed run %v, reference makespan %d", r, got, want, r.Makespan)
		}
	}
	return veng, nil
}
