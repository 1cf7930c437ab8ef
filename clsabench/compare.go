package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
)

// record is one run's result as written by -json: the printed result
// stamped with what is needed to compare runs across machines.
type record struct {
	// Set labels a group of runs made together (baseline files hold
	// several); -compare selects one with FILE#SET.
	Set        string                  `json:"set,omitempty"`
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	Seconds    int                     `json:"seconds"`
	Trace      int                     `json:"trace"`
	NProc      int                     `json:"nproc"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	GoVersion  string                  `json:"go_version"`
	CPUModel   string                  `json:"cpu_model"`
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Metrics    map[string]recordMetric `json:"metrics"`
}

type recordMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func newRecord(name string, o options, r *result) record {
	cpu, _ := procField("/proc/cpuinfo", "model name") // empty where /proc is absent
	rec := record{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: traceFlag(o.traced),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: cpu,
		Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]recordMetric),
	}
	for name, m := range r.metrics {
		rec.Metrics[name] = recordMetric{jsonNumber(m.value), specOf(name).Unit, m.samples}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads FILE or FILE#SET: a JSON array of records or one
// record per line, keeping the untraced ones (of SET, when given) in
// file order.
func readRecords(spec string) ([]record, error) {
	path, set, _ := strings.Cut(spec, "#")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []record
	if t := bytes.TrimSpace(b); len(t) > 0 && t[0] == '[' {
		err = json.Unmarshal(t, &all)
	} else {
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var r record
			if err = json.Unmarshal(sc.Bytes(), &r); err != nil {
				break
			}
			all = append(all, r)
		}
		if err == nil {
			err = sc.Err()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []record
	for _, r := range all {
		if r.Trace == 0 && (set == "" || r.Set == set) {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced records", spec)
	}
	return out, nil
}

// minPairs is the fewest pairs a verdict rests on.
const minPairs = 10

// runCompare applies the paired-run rule to two sets of result records,
// OLD (the parent) and NEW (the change). Runs pair up in file order per
// workload; make them alternating, parent and change taking turns to run
// first. Per workload and end-to-end metric the verdict is:
//
//   - "WIN": the change is better in at least 9 of 10 pairs and the
//     medians differ by more than the parent's interquartile range;
//   - "unresolved": either side's spread (IQR / median) exceeds the
//     metric's bound, unless every change run beats every parent run;
//   - "REGRESSION": the change's median is worse by more than the bound;
//   - "ok": otherwise, no worse than the bound allows.
func runCompare(out io.Writer, spec string) int {
	oldSpec, newSpec, ok := strings.Cut(spec, ",")
	if !ok {
		fmt.Fprintln(os.Stderr, "clsabench: -compare wants OLD,NEW")
		return 2
	}
	old, err := readRecords(oldSpec)
	if err == nil {
		var cur []record
		if cur, err = readRecords(newSpec); err == nil {
			err = compare(out, old, cur)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clsabench:", err)
		return 1
	}
	return 0
}

func compare(out io.Writer, old, cur []record) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "workload\tpairs")
	for _, s := range endToEnd {
		fmt.Fprintf(tw, "\t%s", s.Name)
	}
	fmt.Fprintln(tw)
	var details []string
	for _, w := range workloads {
		a, b := byWorkload(old, w.name), byWorkload(cur, w.name)
		n := min(len(a), len(b))
		if n == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d", w.name, n)
		for _, s := range endToEnd {
			v := judge(values(a[:n], s.Name), values(b[:n], s.Name), s)
			fmt.Fprintf(tw, "\t%+.1f%% %s", v.change*100, v.verdict)
			details = append(details, fmt.Sprintf("%s %s: median %.6g -> %.6g %s, IQR %.6g -> %.6g, spread %.1f%% -> %.1f%% (bound %.0f%%), change better in %d of %d pairs",
				w.name, s.Name, v.oldMedian, v.newMedian, s.Unit, v.oldIQR, v.newIQR, v.oldSpread*100, v.newSpread*100, s.Bound*100, v.wins, n))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, d := range details {
		fmt.Fprintln(out, d)
	}
	return nil
}

func byWorkload(rs []record, name string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

type judgement struct {
	verdict              string
	change               float64 // (new - old) / old median
	oldMedian, newMedian float64
	oldIQR, newIQR       float64
	oldSpread, newSpread float64
	wins                 int
}

func judge(old, cur []float64, s metricSpec) judgement {
	better := func(a, b float64) bool { // a reads better than b
		if s.Better == "higher" {
			return a > b
		}
		return a < b
	}
	j := judgement{oldMedian: median(old), newMedian: median(cur)}
	j.change = (j.newMedian - j.oldMedian) / j.oldMedian
	if len(old) < minPairs {
		j.verdict = fmt.Sprintf("too-few-pairs(<%d)", minPairs)
		return j
	}
	q1, q3 := quartiles(old)
	j.oldIQR, j.oldSpread = q3-q1, (q3-q1)/j.oldMedian
	q1, q3 = quartiles(cur)
	j.newIQR, j.newSpread = q3-q1, (q3-q1)/j.newMedian
	for i := range old {
		if better(cur[i], old[i]) {
			j.wins++
		}
	}
	allBetter := true
	for _, c := range cur {
		for _, o := range old {
			allBetter = allBetter && better(c, o)
		}
	}
	worse := j.change
	if s.Better == "higher" {
		worse = -worse
	}
	switch {
	case 10*j.wins >= 9*len(old) && better(j.newMedian, j.oldMedian) && math.Abs(j.newMedian-j.oldMedian) > j.oldIQR:
		j.verdict = "WIN"
	case allBetter:
		j.verdict = "ok"
	case j.oldSpread > s.Bound || j.newSpread > s.Bound:
		j.verdict = "unresolved"
	case worse > s.Bound:
		j.verdict = "REGRESSION"
	default:
		j.verdict = "ok"
	}
	return j
}
