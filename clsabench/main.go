// Command clsabench is the repository's end-to-end benchmark. It runs
// four workloads (sweep, search, stream, serve), each in its own
// process, checks every output against a reference that does not come
// from the timed run, and reports the end-to-end metrics named in
// BENCHMARK.json; with -trace 1 it makes a separate traced run that
// reports per-layer metrics instead. README.md describes the workloads,
// the metrics and the -compare mode.
//
//	go run . -seed 1                       # all workloads, untraced
//	go run . -workload serve -trace 1      # one workload, traced
//	go run . -compare old.jsonl,new.jsonl  # paired comparison
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

type options struct {
	seed    int64
	seconds int
	traced  bool
	spans   string // span file of a traced run
	jsonOut string // result records are appended here
}

func main() {
	var o options
	name := flag.String("workload", "all", "sweep, search, stream, serve, or all (each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; drives every random choice")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: untraced run reporting end-to-end metrics; 1: traced run reporting per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<N>.txt)")
	flag.StringVar(&o.jsonOut, "json", "", "append a result record (one JSON object per line) to this file")
	compare := flag.String("compare", "", "OLD,NEW: compare two sets of result records (FILE or FILE#SET)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.traced = *trace == 1
	switch {
	case *compare != "":
		os.Exit(runCompare(os.Stdout, *compare))
	case *name == "all":
		os.Exit(runAll(o))
	default:
		os.Exit(runOne(os.Stdout, *name, o))
	}
}

// runAll runs every workload in a child process of its own, one after
// the other, and fails if any of them does.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clsabench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(traceFlag(o.traced))}
		if o.jsonOut != "" {
			args = append(args, "-json", o.jsonOut)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "clsabench %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func traceFlag(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// runOne runs one workload and prints its metrics; the last line is the
// machine-readable result.
func runOne(out io.Writer, name string, o options) int {
	w, err := workloadNamed(name)
	if err == nil && o.traced && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.txt", name, o.seed))
	}
	var res *result
	if err == nil {
		res, err = run(w, o)
	}
	if err == nil {
		err = res.print(out, name, o)
	}
	if err == nil && o.jsonOut != "" {
		err = appendRecord(o.jsonOut, newRecord(name, o, res))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "clsabench %s: %v\n", name, err)
		return 1
	}
	if !res.correct {
		fmt.Fprintf(os.Stderr, "clsabench %s: outputs did not match their references\n", name)
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

// setups is how many times an untraced run sets its workload up;
// setup_s is the median of their CPU times, for the reason cpu_ms_per_op
// is a CPU time.
const setups = 5

func run(w workload, o options) (res *result, err error) {
	n := setups
	if o.traced {
		n = 1
	}
	var inst instance
	var setupS, setupWall []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t, c := time.Now(), cpuMS()
		if inst, err = w.setup(o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, (cpuMS()-c)/1000)
		setupWall = append(setupWall, time.Since(t).Seconds())
	}
	defer func() { err = errors.Join(err, inst.close()) }()
	d := time.Duration(o.seconds) * time.Second
	if o.traced {
		return traced(inst, d, o.spans)
	}
	win, err := inst.measure(d, nil)
	if err != nil {
		return nil, err
	}
	// Read before the verification pass, whose Engine is not part of
	// the workload.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res = &result{attempted: win.attempted, failed: win.failed, notes: append(win.notes,
		fmt.Sprintf("setup_s: median CPU time over %d set-ups; median wall time %.3f s", n, median(setupWall)))}
	_, verr := inst.verify()
	if verr != nil {
		logFailure(verr)
	}
	res.correct = verr == nil && win.failed == 0
	res.metrics = map[string]metric{
		"setup_s":       {median(setupS), len(setupS)},
		"peak_rss_mb":   {rss, 1},
		"cpu_ms_per_op": {win.cpuPerOp, win.cpuSamples},
	}
	return res, nil
}

// traced measures half the window untraced and half traced (their
// difference is the tracing overhead), verifies, replays one operation
// stage by stage, and derives the per-layer metrics.
func traced(inst instance, d time.Duration, spansPath string) (*result, error) {
	plain, err := inst.measure(d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win, err := inst.measure(d/2, tr)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: plain.attempted + win.attempted, failed: plain.failed + win.failed, notes: win.notes}
	layers := make(map[string]float64)
	for k, v := range win.layers {
		layers[k] = v
	}
	veng, err := inst.verify()
	rp := &replayer{tr: tr, veng: veng}
	if err == nil {
		err = inst.replay(rp, layers)
	}
	if err != nil {
		logFailure(err)
	}
	res.correct = err == nil && res.failed == 0
	ops := float64(win.ops)
	layers["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	layers["runtime.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops
	layers["runtime.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
	layers["bench.trace_overhead_pct"] = (win.cpuPerOp - plain.cpuPerOp) / plain.cpuPerOp * 100
	spans := tr.snapshot()
	stageLayers(win, selfMSByName(spans), rp, layers)
	res.metrics = make(map[string]metric)
	for _, s := range perLayer {
		res.metrics[s.Name] = metric{layers[s.Name], win.ops}
	}
	res.notes = append(res.notes, fmt.Sprintf("per-layer values are per operation over %d traced operations; spans in %s", win.ops, spansPath))
	return res, writeSpans(spansPath, spans)
}

// stageLayers fills the engine and pipeline-stage metrics. The replay
// compiles each distinct key of one operation once; scale converts its
// totals to the compilations an operation of the traced window really
// ran (1 for sweep and search, 0 for stream, which never compiles in its
// window, and the miss rate's share for serve).
func stageLayers(win *window, self map[string]float64, rp *replayer, layers map[string]float64) {
	ops := float64(win.ops)
	st := win.engine
	layers["engine.compiles"] = float64(st.Compiles) / ops
	layers["engine.cache_hits"] = float64(st.CacheHits) / ops
	layers["engine.partial_hits"] = float64(st.PartialHits) / ops
	layers["engine.cache_misses"] = float64(st.CacheMisses) / ops
	layers["engine.evictions"] = float64(st.Evictions) / ops
	if probes := st.CacheHits + st.CacheMisses; probes > 0 {
		layers["engine.hit_ratio"] = float64(st.CacheHits) / float64(probes)
	}
	if rp.compiles == 0 {
		return
	}
	scale := float64(st.Compiles) / ops / float64(rp.compiles)
	for metric, span := range map[string]string{
		"frontend.canonicalize_ms": "frontend.canonicalize",
		"mapping.analyze_ms":       "mapping.analyze",
		"mapping.solve_ms":         "mapping.solve",
		"mapping.apply_ms":         "mapping.apply",
		"sets.determine_ms":        "sets.determine",
		"deps.build_ms":            "deps.build",
		"schedule.schedule_ms":     "schedule.schedule",
		"schedule.validate_ms":     "schedule.validate",
		"sim.run_coarse_ms":        "sim.run_coarse",
		"check.timeline_ms":        "check.timeline",
	} {
		layers[metric] = self[span] * scale
	}
	layers["sets.count"] = float64(rp.sets) * scale
	layers["deps.edges"] = float64(rp.edges) * scale
	layers["schedule.items"] = float64(rp.items) * scale
	layers["sim.runs"] = float64(rp.simRuns) * scale
	layers["mapping.score_calls"] = float64(len(rp.scoreMS)) * scale
	layers["mapping.score_ms_p50"] = median(rp.scoreMS)
	if len(rp.scoreMS) > 0 {
		layers["mapping.score_improving_ratio"] = float64(rp.improving) / float64(len(rp.scoreMS))
	}
	// The stream replay covers exactly one operation.
	layers["check.stream_ms"] = self["check.stream"]
	layers["stream.jobs"] = float64(rp.streamJobs)
	if rp.streamJobs > 0 {
		layers["stream.evaluate_ms_per_inf"] = self["stream.run"] / float64(rp.streamJobs)
	}
}

// jsonNumber keeps a value encodable: a latency made infinite by failed
// requests is reported as the largest float64.
func jsonNumber(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

func (r *result) print(w io.Writer, name string, o options) error {
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	fmt.Fprintf(w, "clsabench %s: seed %d, %d s, trace %d, GOMAXPROCS %d, %s\n",
		name, o.seed, o.seconds, traceFlag(o.traced), runtime.GOMAXPROCS(0), runtime.Version())
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, s := range specs {
		m := r.metrics[s.Name]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", s.Name, m.value, s.Unit, m.samples)
		last.Metrics[s.Name] = value{jsonNumber(m.value), s.Unit}
	}
	fmt.Fprintf(w, "  fail_ratio %g (%d failed of %d attempted)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// failures counts logged failures; only the first few are printed.
var failures atomic.Int64

func logFailure(err error) {
	const shown = 20
	switch n := failures.Add(1); {
	case n <= shown:
		fmt.Fprintln(os.Stderr, "clsabench: FAIL", err)
	case n == shown+1:
		fmt.Fprintln(os.Stderr, "clsabench: further failures not shown")
	}
}

// procField returns the value of the first "key<sep>value" line of a
// /proc file.
func procField(path, key string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in %s", key, path)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	return kb / 1024, err
}
