// Command benchdiff compares two `go test -bench -benchmem` outputs
// offline: for every benchmark it prints the median ns/op, B/op and
// allocs/op over the -count runs in each file, and the relative change.
//
// Usage:
//
//	benchdiff old.txt new.txt
//
// Go appends "-N" (N = GOMAXPROCS, when above 1) to benchmark names;
// benchdiff strips it so the files match by name, and flags a row whose
// two sides ran at different GOMAXPROCS, since their ns/op are not
// comparable. allocs/op is the hardware-independent column.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// units are the per-op columns benchdiff reports, in print order.
var units = []string{"ns/op", "B/op", "allocs/op"}

// procsSuffix matches the "-N" GOMAXPROCS suffix of a benchmark name.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// bench is one benchmark's samples in one file.
type bench struct {
	procs   string // GOMAXPROCS suffix, "" for 1
	samples map[string][]float64
}

// result is one parsed file: benchmarks in order of first appearance.
type result struct {
	names  []string
	byName map[string]*bench
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff old.txt new.txt")
		os.Exit(2)
	}
	old, err := parseFile(os.Args[1])
	if err != nil {
		fatal(err)
	}
	cur, err := parseFile(os.Args[2])
	if err != nil {
		fatal(err)
	}
	if err := write(os.Stdout, old, cur); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}

func parseFile(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse reads benchmark result lines ("BenchmarkX  20  123 ns/op  4 B/op
// ..."): a name, an iteration count, then value/unit pairs. Every other
// line is ignored.
func parse(r io.Reader) (*result, error) {
	res := &result{byName: map[string]*bench{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a benchmark's own log line, not a result
		}
		name, procs := f[0], ""
		if m := procsSuffix.FindStringSubmatch(name); m != nil {
			name, procs = name[:len(name)-len(m[0])], m[1]
		}
		b := res.byName[name]
		if b == nil {
			b = &bench{procs: procs, samples: map[string][]float64{}}
			res.byName[name] = b
			res.names = append(res.names, name)
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: value %q: %v", f[0], f[i], err)
			}
			b.samples[f[i+1]] = append(b.samples[f[i+1]], v)
		}
	}
	return res, sc.Err()
}

// median returns the median of xs and whether xs is non-empty.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// write prints one row per benchmark and unit: old and new medians with
// their sample counts, and the change. Benchmarks only one side ran
// show "-" on the other.
func write(w io.Writer, old, cur *result) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tunit\told\tnew\tdelta\t")
	names := slices.Clone(old.names)
	for _, n := range cur.names {
		if old.byName[n] == nil {
			names = append(names, n)
		}
	}
	for _, name := range names {
		o, c := old.byName[name], cur.byName[name]
		label := name
		if o != nil && c != nil && o.procs != c.procs {
			label += fmt.Sprintf(" (GOMAXPROCS %s vs %s)", procsOf(o), procsOf(c))
		}
		for _, u := range units {
			om, okO := medianOf(o, u)
			cm, okC := medianOf(c, u)
			if !okO && !okC {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n", label, u, cell(o, u, om, okO), cell(c, u, cm, okC), delta(om, okO, cm, okC))
		}
	}
	return tw.Flush()
}

func procsOf(b *bench) string {
	if b.procs == "" {
		return "1"
	}
	return b.procs
}

func medianOf(b *bench, unit string) (float64, bool) {
	if b == nil {
		return 0, false
	}
	return median(b.samples[unit])
}

func cell(b *bench, unit string, v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%s (n=%d)", strconv.FormatFloat(v, 'f', -1, 64), len(b.samples[unit]))
}

func delta(o float64, okO bool, c float64, okC bool) string {
	switch {
	case !okO || !okC:
		return "-"
	case o == c:
		return "~"
	case o == 0:
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", (c-o)/o*100)
}
