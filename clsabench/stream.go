package main

import (
	"context"
	"fmt"
	"time"

	"clsacim"
	"clsacim/internal/bench"
	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/schedule"
	"clsacim/internal/stream"
)

// streamInferences is the per-scenario stream length of BENCH_stream.
const streamInferences = 16

// streamW runs the BENCH_stream scenarios on a warm Engine: set-up
// compiles and schedules every model, so the timed operations exercise
// the internal/stream event loop (including shared-pool conflict sets)
// and no compile work.
type streamW struct {
	eng   *clsacim.Engine
	names []string
	reqs  []clsacim.StreamRequest
	// seen holds each scenario's first result; the stream scheduler is
	// deterministic, so every later run must repeat it.
	seen map[string]streamOutcome
}

type streamOutcome struct {
	makespan int64
	p50, p99 float64
}

func setupStream(seed int64) (instance, error) {
	eng, err := clsacim.New()
	if err != nil {
		return nil, err
	}
	s := &streamW{eng: eng, seen: make(map[string]streamOutcome)}
	var singleRate float64
	for _, sc := range bench.StreamScenarios {
		req := clsacim.StreamRequest{Inferences: streamInferences, Mode: clsacim.ModeCrossLayer, SharedPool: sc.Shared}
		for _, m := range sc.Models {
			req.Models = append(req.Models, clsacim.StreamModel{Model: m, ExtraPEs: sc.X, WeightDuplication: sc.Wdup})
		}
		switch sc.Arrival {
		case "closed":
			req.Arrival = clsacim.ArrivalProcess{Kind: "closed", Concurrency: sc.Concurrency}
		case "poisson":
			// As in BENCH_stream: offered load at twice the serial rate
			// of the first (closed-loop, one in flight) scenario.
			if singleRate <= 0 {
				return nil, fmt.Errorf("stream %s: no single-inference rate measured before it", sc.Name)
			}
			req.Arrival = clsacim.ArrivalProcess{Kind: "poisson", Seed: splitmix(uint64(seed)), RatePerSec: 2 * singleRate}
		default:
			return nil, fmt.Errorf("stream %s: unknown arrival %q", sc.Name, sc.Arrival)
		}
		// The first evaluation compiles and schedules the models.
		res, err := eng.EvaluateStream(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", sc.Name, err)
		}
		if err := s.check(sc.Name, res); err != nil {
			return nil, err
		}
		if singleRate == 0 {
			singleRate = res.PerModel[0].SingleRatePerSec
		}
		s.names = append(s.names, sc.Name)
		s.reqs = append(s.reqs, req)
	}
	return s, nil
}

// check compares a scenario's result with the BENCH_stream reference
// (closed-loop and shared-pool rows; Poisson arrivals depend on the
// seed) and with the scenario's first result.
func (s *streamW) check(name string, res *clsacim.StreamResult) error {
	got := streamOutcome{res.MakespanCycles, res.Latency.P50Nanos, res.Latency.P99Nanos}
	if want, ok := ref.Stream[name]; ok && got.makespan != want {
		return fmt.Errorf("stream %s: makespan %d, reference %d", name, got.makespan, want)
	}
	if prev, ok := s.seen[name]; !ok {
		s.seen[name] = got
	} else if prev != got {
		return fmt.Errorf("stream %s: got %+v, earlier %+v", name, got, prev)
	}
	return nil
}

func (s *streamW) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	before := s.eng.Stats()
	wall, cpu, err := closedLoop(d, func(i int) error {
		for j, req := range s.reqs {
			sp := tr.start(0, "engine.evaluate_stream", fmt.Sprintf("op%d %s", i, s.names[j]))
			res, err := s.eng.EvaluateStream(context.Background(), req)
			tr.end(sp)
			w.attempted++
			if err == nil {
				err = s.check(s.names[j], res)
			}
			if err != nil {
				logFailure(err)
				w.failed++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.engine = subStats(s.eng.Stats(), before)
	w.loop(wall, cpu, fmt.Sprintf("iteration over %d scenarios (%d simulated inferences)", len(s.reqs), len(s.reqs)*streamInferences))
	return w, nil
}

func (s *streamW) verify() (*clsacim.Engine, error) {
	veng, err := clsacim.New(clsacim.WithValidation())
	if err != nil {
		return nil, err
	}
	for j, req := range s.reqs {
		res, err := veng.EvaluateStream(context.Background(), req)
		if err == nil {
			err = s.check(s.names[j], res)
		}
		if err != nil {
			return nil, fmt.Errorf("validated stream %s: %w", s.names[j], err)
		}
	}
	return veng, nil
}

// replay runs each scenario straight through stream.Run and check.Stream
// on replayed compilations. Assembling the stream.Workload repeats what
// Engine.EvaluateStream does; the makespan comparison catches any drift.
func (s *streamW) replay(rp *replayer, _ map[string]float64) error {
	arts := make(map[string]*artifact)
	for j, req := range s.reqs {
		name := s.names[j]
		pol, err := schedule.ParseMode(req.Mode.Name())
		if err != nil {
			return err
		}
		specs := make([]stream.ModelSpec, len(req.Models))
		weights := make([]float64, len(req.Models))
		fabric := 0
		for i, m := range req.Models {
			key := fmt.Sprintf("%s wdup+%d", m.Model, m.ExtraPEs)
			a := arts[key]
			if a == nil {
				r := clsacim.Request{Model: m.Model, Mode: req.Mode, ExtraPEs: m.ExtraPEs, WeightDuplication: m.WeightDuplication}
				if a, err = rp.request(key, r, []clsacim.ScheduleMode{req.Mode}); err != nil {
					return err
				}
				arts[key] = a
			}
			base := 0
			if !req.SharedPool {
				base = fabric
				fabric += a.mapped.F
			} else if a.mapped.F > fabric {
				fabric = a.mapped.F
			}
			specs[i] = stream.ModelSpec{Name: m.Model, Graph: a.dg, Mapping: a.mapped, Policy: pol, PEBase: base}
			weights[i] = 1
		}
		w := stream.Workload{FabricPEs: fabric, Models: specs, Sequence: make([]int, req.Inferences)}
		if len(req.Models) > 1 {
			// The Engine draws multi-model mixes from the arrival seed
			// xor this constant.
			if w.Sequence, err = stream.ModelSequence(req.Arrival.Seed^0x6d697865726d6978, req.Inferences, weights); err != nil {
				return err
			}
		}
		switch req.Arrival.Kind {
		case "closed":
			w.Concurrency = req.Arrival.Concurrency
		case "poisson":
			cyclesPerSec := 1e9 / cim.DefaultTMVMNanos
			if w.Arrivals, err = stream.PoissonArrivals(req.Arrival.Seed, req.Inferences, cyclesPerSec/req.Arrival.RatePerSec); err != nil {
				return err
			}
		}
		var res *stream.Result
		if err := rp.call(0, "stream.run", name, func() (err error) {
			res, err = stream.Run(w, stream.Options{})
			return err
		}); err != nil {
			return err
		}
		models := make([]check.StreamModel, len(specs))
		for i, sp := range specs {
			models[i] = check.StreamModel{Graph: sp.Graph, Mapping: sp.Mapping, Policy: sp.Policy, PEBase: sp.PEBase}
		}
		infs := make([]check.StreamInference, len(res.Jobs))
		for i, job := range res.Jobs {
			infs[i] = check.StreamInference{Model: job.Model, Arrival: job.Arrival, Timeline: res.Timelines[i]}
		}
		if err := rp.call(0, "check.stream", name, func() error {
			return check.Stream(models, infs, check.StreamOptions{})
		}); err != nil {
			return err
		}
		rp.streamJobs += len(res.Jobs)
		if res.MakespanCycles != s.seen[name].makespan {
			return fmt.Errorf("stream %s: replay makespan %d, engine %d", name, res.MakespanCycles, s.seen[name].makespan)
		}
	}
	return nil
}

func (s *streamW) close() error { return nil }
