package main

import (
	"context"
	"fmt"
	"time"

	"clsacim"
)

// search is the schedule-aware mapping path: every operation is a fresh
// Engine evaluating the paper's headline point with the "search" solver
// at its default budget, which scores 48 candidates through Apply,
// Stage I, Stage II and sim.RunCoarse. The solver seed comes from the
// workload seed.
type search struct {
	req  clsacim.Request
	seen outcomes
}

func setupSearch(seed int64) (instance, error) {
	s := &search{req: headline().request()}
	// The warm-up evaluates the same point with the dp solver: it builds
	// the model table and grows the heap without a timed search.
	eng, err := clsacim.New()
	if err != nil {
		return nil, err
	}
	ev, err := eng.Evaluate(context.Background(), s.req)
	if err == nil && ev.Result.MakespanCycles != headline().Makespan {
		err = fmt.Errorf("%v: makespan %d, reference %d", headline(), ev.Result.MakespanCycles, headline().Makespan)
	}
	if err != nil {
		return nil, err
	}
	s.req.Solver = "search"
	s.req.SolverSeed = splitmix(uint64(seed))
	return s, nil
}

// splitmix derives a well-mixed, non-zero solver seed from the workload
// seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) | 1
}

// check requires the search result to be no worse than the dp headline
// (the solver seeds its walk with dp), the baseline to match the
// reference, and every compile with the same seed to agree.
func (s *search) check(ev *clsacim.Evaluation) error {
	if ev.Result.MakespanCycles > headline().Makespan {
		return fmt.Errorf("search: makespan %d above the dp reference %d", ev.Result.MakespanCycles, headline().Makespan)
	}
	if ev.Baseline.MakespanCycles != baseline().Makespan {
		return fmt.Errorf("search: baseline makespan %d, reference %d", ev.Baseline.MakespanCycles, baseline().Makespan)
	}
	return s.seen.note("search", outcomeOf(ev))
}

func (s *search) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	wall, cpu, err := closedLoop(d, func(i int) error {
		eng, err := clsacim.New()
		if err != nil {
			return err
		}
		sp := tr.start(0, "engine.evaluate", fmt.Sprintf("op%d", i))
		ev, err := eng.Evaluate(context.Background(), s.req)
		tr.end(sp)
		w.attempted++
		if err == nil {
			err = s.check(ev)
		}
		if err != nil {
			logFailure(err)
			w.failed++
		}
		w.engine = addStats(w.engine, eng.Stats())
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.loop(wall, cpu, fmt.Sprintf("compile (solver seed %d)", s.req.SolverSeed))
	return w, nil
}

func (s *search) verify() (*clsacim.Engine, error) {
	veng, err := clsacim.New(clsacim.WithValidation())
	if err != nil {
		return nil, err
	}
	ev, err := veng.Evaluate(context.Background(), s.req)
	if err != nil {
		return nil, fmt.Errorf("validated search: %w", err)
	}
	if err := s.check(ev); err != nil {
		return nil, fmt.Errorf("validated %w", err)
	}
	return veng, nil
}

func (s *search) replay(rp *replayer, _ map[string]float64) error {
	if _, err := rp.request("baseline", baseline().request(), []clsacim.ScheduleMode{clsacim.ModeLayerByLayer}); err != nil {
		return err
	}
	_, err := rp.request("search", s.req, []clsacim.ScheduleMode{s.req.Mode})
	return err
}

func (s *search) close() error { return nil }
