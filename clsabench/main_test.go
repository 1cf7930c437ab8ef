package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the workload and metric tables it is written from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the benchmark %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %+v, the benchmark %+v", doc.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"clsabench"}) || doc.Command[len(doc.Command)-1] != "clsabench/run.sh" {
		t.Errorf("command %v and paths %v do not name this directory", doc.Command, doc.Paths)
	}
}

// checkEmitted runs w for one operation and requires every metric of
// specs with a finite value and the right unit in the printed result.
func checkEmitted(t *testing.T, w workload, o options, specs []metricSpec) {
	t.Helper()
	res, err := run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("correct %v, %d of %d failed", res.correct, res.failed, res.attempted)
	}
	var out strings.Builder
	if err := res.print(&out, w.name, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(last.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, want %d", len(last.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := last.Metrics[s.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s not emitted", s.Name)
		case m.Unit != s.Unit:
			t.Errorf("%s: unit %q, want %q", s.Name, m.Unit, s.Unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s = %v", s.Name, *m.Value)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name+"/untraced", func(t *testing.T) {
			checkEmitted(t, w, options{seed: 1, seconds: 1}, endToEnd)
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			o := options{seed: 2, seconds: 1, traced: true, spans: filepath.Join(t.TempDir(), "spans.txt")}
			checkEmitted(t, w, o, perLayer)
			if b, err := os.ReadFile(o.spans); err != nil || !strings.Contains(string(b), "# self time per layer") {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestWrongReferenceFails: an output that differs from its reference
// fails the run.
func TestWrongReferenceFails(t *testing.T) {
	row := &ref.Grid[len(ref.Grid)-1]
	row.Makespan++
	defer func() { row.Makespan-- }()
	w, err := workloadNamed("sweep")
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(w, options{seed: 1, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 {
		t.Fatalf("wrong reference accepted: correct %v, %d failed", res.correct, res.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "cpu_ms_per_op", Better: "lower", Bound: 0.1}
	series := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		old, cur []float64
		want     string
	}{
		{"faster in every pair", series(100, 1), series(80, 1), "WIN"},
		{"same", series(100, 1), series(100, 1), "ok"},
		{"slower beyond the bound", series(100, 1), series(120, 1), "REGRESSION"},
		{"spread wider than the bound", series(100, 10), series(100, 10), "unresolved"},
		{"too few pairs", series(100, 1)[:5], series(80, 1)[:5], "too-few-pairs(<10)"},
	} {
		if got := judge(tc.old, tc.cur, lower).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
