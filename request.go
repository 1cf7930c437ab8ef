package clsacim

import (
	"encoding/json"
	"fmt"

	"clsacim/internal/schedule"
)

// Request describes one evaluation: which model to run, how to map it
// (the sweep knobs of the paper's Fig. 6c/7), and how to schedule it.
// The architecture normally comes from the Engine's options; a Request
// only overlays the per-workload fields, so requests stay small and a
// sweep over (x, wdup) points shares one compiled baseline.
//
// Request round-trips through JSON (mode is encoded as "xinf"/"lbl"),
// so evaluation jobs can arrive over the wire:
//
//	{"model": "tinyyolov4", "mode": "xinf", "extra_pes": 32, "weight_duplication": true}
type Request struct {
	// Model names a builtin model (see Models) or one registered with
	// RegisterModel.
	Model string `json:"model"`
	// Mode selects the scheduling strategy (default ModeLayerByLayer).
	Mode ScheduleMode `json:"mode"`
	// ExtraPEs overlays Config.ExtraPEs when non-zero (the paper's x).
	ExtraPEs int `json:"extra_pes,omitempty"`
	// TotalPEs overlays Config.TotalPEs when non-zero.
	TotalPEs int `json:"total_pes,omitempty"`
	// WeightDuplication turns the wdup mapping on. (It cannot turn an
	// engine-wide default off; use Config for full control.)
	WeightDuplication bool `json:"weight_duplication,omitempty"`
	// Solver overlays Config.Solver when non-empty.
	Solver string `json:"solver,omitempty"`
	// SolverBudget overlays Config.SolverBudget when non-zero: the
	// evaluation budget of a scored solver such as "search".
	SolverBudget int `json:"solver_budget,omitempty"`
	// SolverSeed overlays Config.SolverSeed when non-zero: the RNG seed
	// of a scored solver.
	SolverSeed uint64 `json:"solver_seed,omitempty"`
	// Config, when non-nil, replaces the Engine's configuration
	// entirely (the overlay fields above still apply on top). Use it
	// when a request must control the architecture itself.
	Config *Config `json:"config,omitempty"`
	// TimeoutMillis bounds this request's wall-clock time when positive:
	// Evaluate/Schedule/Compile run under a context deadline of
	// TimeoutMillis milliseconds (in addition to whatever deadline the
	// caller's context already carries) and fail with
	// context.DeadlineExceeded when it expires. A compilation already
	// started is never abandoned mid-flight — the deadline is checked
	// between pipeline steps and while waiting on the cache — so a
	// timed-out request may still have warmed the cache for the next one.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// Validate checks the request against the process-wide registries
// without compiling anything.
func (r Request) Validate() error {
	if r.Model == "" {
		return fmt.Errorf("clsacim: request has no model")
	}
	if _, err := lookupModel(r.Model); err != nil {
		return err
	}
	if r.ExtraPEs < 0 {
		return fmt.Errorf("clsacim: request has negative ExtraPEs %d", r.ExtraPEs)
	}
	if r.TotalPEs < 0 {
		return fmt.Errorf("clsacim: request has negative TotalPEs %d", r.TotalPEs)
	}
	if r.TimeoutMillis < 0 {
		return fmt.Errorf("clsacim: request has negative TimeoutMillis %d", r.TimeoutMillis)
	}
	if r.Solver != "" {
		if err := checkSolver(r.Solver); err != nil {
			return err
		}
	}
	if r.SolverBudget < 0 {
		return fmt.Errorf("clsacim: request has negative SolverBudget %d", r.SolverBudget)
	}
	return nil
}

// BatchResult pairs one Request of an EvaluateBatch call with its
// outcome. Exactly one of Evaluation and Err is set.
type BatchResult struct {
	Request    Request
	Evaluation *Evaluation
	Err        error
}

// ParseMode resolves the scheduling-mode names: "xinf" (cross-layer
// inference), "lbl" (layer-by-layer), and the bounded-window family
// "x<K>" ("x1", "x2", "x4", ...), case-insensitive, with the aliases
// "cross-layer", "crosslayer", "layer-by-layer", and "layerbylayer".
// Unknown names return ErrUnknownMode.
func ParseMode(name string) (ScheduleMode, error) {
	p, err := schedule.ParseMode(name)
	if err != nil {
		return ScheduleMode{}, fmt.Errorf("%w %q (want lbl, xinf, or xK)", ErrUnknownMode, name)
	}
	switch {
	case p == schedule.CrossLayer:
		return ModeCrossLayer, nil
	case p == schedule.LayerByLayer:
		return ModeLayerByLayer, nil
	default:
		return ModeWindow(p.Window()), nil
	}
}

// wireName is the compact mode encoding used on the wire.
func (m ScheduleMode) wireName() string {
	switch {
	case m.w < 0:
		return "xinf"
	case m.w == 0:
		return "lbl"
	default:
		return fmt.Sprintf("x%d", m.w)
	}
}

// MarshalJSON encodes the mode by its wire name: "lbl", "xinf", or
// "x<K>" for bounded windows.
func (m ScheduleMode) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.wireName())
}

// UnmarshalJSON accepts the wire names understood by ParseMode ("lbl",
// "xinf", "x<K>", and their aliases) as well as the historical numeric
// enum values (0 = lbl, 1 = xinf) for compatibility.
func (m *ScheduleMode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, perr := ParseMode(s)
		if perr != nil {
			return perr
		}
		*m = parsed
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("clsacim: mode must be a string or integer: %w", err)
	}
	switch n {
	case 0:
		*m = ModeLayerByLayer
	case 1:
		*m = ModeCrossLayer
	default:
		return fmt.Errorf("%w %d", ErrUnknownMode, n)
	}
	return nil
}
