package main

import (
	"strings"
	"testing"
)

const oldOut = `goos: linux
gomaxprocs: 1
BenchmarkCompile   	      20	  300 ns/op	 1000 B/op	   10 allocs/op
BenchmarkCompile   	      20	  100 ns/op	 1000 B/op	   10 allocs/op
BenchmarkCompile   	      20	  200 ns/op	 1000 B/op	   10 allocs/op
BenchmarkStage/x4  	      20	   50 ns/op	    0 B/op	    0 allocs/op
BenchmarkGone      	      20	    7 ns/op
PASS
`

const newOut = `BenchmarkCompile-2   	      20	  100 ns/op	  400 B/op	    4 allocs/op
BenchmarkCompile-2   	      20	  140 ns/op	  400 B/op	    4 allocs/op
BenchmarkStage/x4-2  	      20	   50 ns/op	    0 B/op	    0 allocs/op
BenchmarkStage/x4-2  	      20	   60 ns/op	    0 B/op	    0 allocs/op
BenchmarkNew-2       	      20	    9 ns/op	    1.5 gain
ok  	clsacim	1.0s
`

func TestParseMedians(t *testing.T) {
	res, err := parse(strings.NewReader(newOut))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.names, ","); got != "BenchmarkCompile,BenchmarkStage/x4,BenchmarkNew" {
		t.Fatalf("names = %s (the -N suffix must be stripped)", got)
	}
	for _, c := range []struct {
		name, unit string
		want       float64
	}{
		{"BenchmarkCompile", "ns/op", 120},
		{"BenchmarkCompile", "allocs/op", 4},
		{"BenchmarkStage/x4", "ns/op", 55},
		{"BenchmarkNew", "gain", 1.5},
	} {
		got, ok := medianOf(res.byName[c.name], c.unit)
		if !ok || got != c.want {
			t.Errorf("%s %s median = %v (ok %v), want %v", c.name, c.unit, got, ok, c.want)
		}
	}
}

func TestWrite(t *testing.T) {
	old, err := parse(strings.NewReader(oldOut))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(newOut))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := write(&b, old, cur); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"BenchmarkCompile (GOMAXPROCS 1 vs 2)",
		"200 (n=3)", "120 (n=2)", "-40.0%", // ns/op medians and change
		"-60.0%", // B/op and allocs/op
		"~",      // 0 -> 0 allocs
		"BenchmarkGone", "BenchmarkNew",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "gain") {
		t.Errorf("custom metrics must not be reported:\n%s", out)
	}
}
