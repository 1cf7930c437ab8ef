package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"

	"clsacim"
)

// referenceJSON holds the expected outputs. They were copied from the
// repository's committed BENCH_*.json results, never from a timed run of
// this benchmark, so a wrong answer from the code under test cannot
// become its own reference.
//
//go:embed reference.json
var referenceJSON []byte

// gridRow is one point of the Fig. 6c + Fig. 7 design-space grid with
// its expected makespan.
type gridRow struct {
	Model    string `json:"model"`
	X        int    `json:"x"`
	Wdup     bool   `json:"wdup"`
	Mode     string `json:"mode"`
	Makespan int64  `json:"makespan_cycles"`
}

type reference struct {
	Grid   []gridRow        `json:"grid"`
	Stream map[string]int64 `json:"stream_makespan_cycles"`
}

// ref is the parsed reference; a parse failure is a build defect.
var ref = func() reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("clsabench: reference.json: %v", err))
	}
	return r
}()

func (r gridRow) mode() clsacim.ScheduleMode {
	m, err := clsacim.ParseMode(r.Mode)
	if err != nil {
		panic(fmt.Sprintf("clsabench: reference.json: %v", err))
	}
	return m
}

func (r gridRow) request() clsacim.Request {
	return clsacim.Request{Model: r.Model, Mode: r.mode(), ExtraPEs: r.X, WeightDuplication: r.Wdup}
}

func (r gridRow) String() string {
	if !r.Wdup {
		return fmt.Sprintf("%s %s", r.Model, r.Mode)
	}
	return fmt.Sprintf("%s wdup+%d %s", r.Model, r.X, r.Mode)
}

// compileKeys returns the distinct compilations an Evaluate of the row
// needs, each with the scheduling modes it is scheduled under: the
// layer-by-layer baseline (no duplication, x = 0) and the row's own
// mapping. Without duplication extra PEs stay idle, so the Engine folds
// such rows onto the baseline compilation; the keys below fold the same
// way.
func (r gridRow) compileKeys() []gridRow {
	base := gridRow{Model: r.Model, Mode: "lbl"}
	if !r.Wdup {
		return []gridRow{base, {Model: r.Model, Mode: r.Mode}}
	}
	return []gridRow{base, {Model: r.Model, X: r.X, Wdup: true, Mode: r.Mode}}
}

// replayKeys groups the compilations behind rows: one entry per distinct
// (model, x, wdup), listing every mode it is scheduled under, in first
// appearance order.
func replayKeys(rows []gridRow) []replayKey {
	var out []replayKey
	index := make(map[gridRow]int)
	for _, r := range rows {
		for _, k := range r.compileKeys() {
			id := gridRow{Model: k.Model, X: k.X, Wdup: k.Wdup}
			i, ok := index[id]
			if !ok {
				i = len(out)
				index[id] = i
				out = append(out, replayKey{req: k.request()})
			}
			if m := k.mode(); !slices.Contains(out[i].modes, m) {
				out[i].modes = append(out[i].modes, m)
			}
		}
	}
	return out
}

// replayKey is one compilation to replay and the modes to schedule it
// under.
type replayKey struct {
	req   clsacim.Request
	modes []clsacim.ScheduleMode
}

// headline is the paper's case-study point, TinyYOLOv4 wdup+32 xinf,
// and baseline its layer-by-layer reference.
func headline() gridRow { return findRow("tinyyolov4", 32, true, "xinf") }
func baseline() gridRow { return findRow("tinyyolov4", 0, false, "lbl") }

func findRow(model string, x int, wdup bool, mode string) gridRow {
	for _, r := range ref.Grid {
		if r.Model == model && r.X == x && r.Wdup == wdup && r.Mode == mode {
			return r
		}
	}
	panic(fmt.Sprintf("clsabench: reference.json has no row %s x=%d wdup=%v %s", model, x, wdup, mode))
}

// outcome is what one evaluation returned: the makespan and the applied
// duplication vector.
type outcome struct {
	makespan int64
	dup      []int
}

func outcomeOf(ev *clsacim.Evaluation) outcome {
	return outcome{ev.Result.MakespanCycles, ev.Result.Duplication}
}

func (o outcome) equal(p outcome) bool {
	return o.makespan == p.makespan && slices.Equal(o.dup, p.dup)
}

func (o outcome) String() string { return fmt.Sprintf("makespan %d d=%v", o.makespan, o.dup) }
