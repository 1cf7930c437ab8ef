package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"clsacim"
)

// workload is one traffic mix. setup builds everything its timed
// operations need; it is what setup_s measures.
type workload struct {
	name string
	// why the workload exists: which layers it stresses and which it
	// leaves alone.
	why   string
	setup func(seed int64) (instance, error)
}

var workloads = []workload{
	{"sweep", "design-space sweep: each op is a fresh Engine and one EvaluateBatch over the 64-point Fig. 6c + Fig. 7 grid; compiles dominate, sim and serve are never called", setupSweep},
	{"search", "schedule-aware mapping: each op is a fresh Engine compiling TinyYOLOv4 wdup+32 xinf with the search solver (48 scorings through sim)", setupSearch},
	{"stream", "stream scheduling on a warm Engine: each op is the six BENCH_stream scenarios of 16 inferences; the stream event loop dominates, no compiles", setupStream},
	{"serve", "HTTP daemon: 9 in 10 evaluate requests hit a hot set, every 10th misses; through client and serve, open loop at 100 req/s, then closed loop on nproc connections", setupServe},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want sweep, search, stream, serve or all)", name)
}

// instance is a set-up workload.
type instance interface {
	// measure runs the workload for d. With tr non-nil it also records a
	// span around every call into the engine, serve and client layers.
	measure(d time.Duration, tr *tracer) (*window, error)
	// verify replays each distinct request of the timed run once on an
	// Engine with validation on (check.Timeline and check.Stream) and
	// requires the same results. It returns that Engine.
	verify() (*clsacim.Engine, error)
	// replay re-runs the work of one operation stage by stage through
	// the internal packages under rp's tracer. Values only the workload
	// can compute go into layers.
	replay(rp *replayer, layers map[string]float64) error
	close() error
}

// window is what one measured stretch of a workload produced.
type window struct {
	// cpuPerOp is cpu_ms_per_op, summarizing cpuSamples observations.
	cpuPerOp   float64
	cpuSamples int
	// ops is the number of operations; per-layer values are per op.
	ops               int
	attempted, failed int
	// engine accumulates the Engine counters over the window.
	engine clsacim.Stats
	// layers holds per-layer values only the workload can compute.
	layers map[string]float64
	// notes are extra human-readable result lines.
	notes []string
}

// closedLoop runs op back to back until d has passed and returns each
// operation's wall time and the process's CPU time during it, both in
// milliseconds.
func closedLoop(d time.Duration, op func(i int) error) (wall, cpu []float64, err error) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t, c := time.Now(), cpuMS()
		if err := op(i); err != nil {
			return nil, nil, err
		}
		wall = append(wall, ms(time.Since(t)))
		cpu = append(cpu, cpuMS()-c)
	}
	return wall, cpu, nil
}

// loop records a closed loop's samples in w: cpu_ms_per_op is the median
// CPU time of one op, and a note gives the median wall time, which is
// printed but not a bounded metric (README.md, "Host noise").
func (w *window) loop(wall, cpu []float64, op string) {
	w.ops = len(wall)
	w.cpuPerOp, w.cpuSamples = median(cpu), len(cpu)
	w.notes = append(w.notes, fmt.Sprintf("cpu_ms_per_op: median CPU time over %d operations (one operation: %s); median wall time %.3f ms",
		len(cpu), op, median(wall)))
}

// cpuMS is the CPU time the process has used, user and system, over all
// its threads, in milliseconds (CLOCK_PROCESS_CPUTIME_ID; getrusage
// counts in 10 ms steps, too coarse for a set-up of 60 ms). A guest
// kernel with steal-time accounting leaves out time the hypervisor gave
// to other guests; wall time does not.
func cpuMS() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return ms(time.Duration(ts.Nano()))
}

// addStats accumulates the cache counters the per-layer metrics use
// (workloads with a fresh Engine per operation).
func addStats(a, b clsacim.Stats) clsacim.Stats {
	return clsacim.Stats{
		Compiles:    a.Compiles + b.Compiles,
		CacheHits:   a.CacheHits + b.CacheHits,
		PartialHits: a.PartialHits + b.PartialHits,
		CacheMisses: a.CacheMisses + b.CacheMisses,
		Evictions:   a.Evictions + b.Evictions,
	}
}

// subStats is the counter delta b - a of one long-lived Engine.
func subStats(b, a clsacim.Stats) clsacim.Stats {
	return clsacim.Stats{
		Compiles:    b.Compiles - a.Compiles,
		CacheHits:   b.CacheHits - a.CacheHits,
		PartialHits: b.PartialHits - a.PartialHits,
		CacheMisses: b.CacheMisses - a.CacheMisses,
		Evictions:   b.Evictions - a.Evictions,
	}
}

// outcomes records the first outcome per request and rejects any later
// one that differs: the pipeline is deterministic, so two answers to one
// request are a defect.
type outcomes struct {
	mu sync.Mutex
	m  map[string]outcome
}

func (o *outcomes) note(key string, got outcome) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.m == nil {
		o.m = make(map[string]outcome)
	}
	prev, ok := o.m[key]
	if !ok {
		o.m[key] = got
		return nil
	}
	if !prev.equal(got) {
		return fmt.Errorf("%s: got %v, earlier %v", key, got, prev)
	}
	return nil
}

func (o *outcomes) get(key string) (outcome, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	got, ok := o.m[key]
	return got, ok
}
