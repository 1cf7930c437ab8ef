package clsacim

import (
	"encoding/json"
	"fmt"

	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
)

// Request describes one evaluation: which model to run, how to map it
// (the sweep knobs of the paper's Fig. 6c/7), and how to schedule it.
// The architecture normally comes from the Engine's Config; a Request
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

// Validate checks the request without compiling anything: the model
// must resolve, TimeoutMillis must not be negative, and the request's
// Config (or the defaults) with the overlay fields applied must pass
// Config.Validate. Every Config rule is per field, so the verdict holds
// on any Engine, whose own Config WithConfig already checked. Every
// Engine entry point runs the same checks itself, so callers need not.
func (r Request) Validate() error {
	_, err := r.validate(Config{}, nil)
	return err
}

// validate is the request gate: every Engine entry point runs it once,
// before any cache lookup. It holds the rules on the request's own
// fields — a model named and registered, unless m is the *Model the
// caller passed directly, and a non-negative TimeoutMillis — and then
// applies Config.Validate, the one list of Config rules, to base with
// the request's overlay. It returns the model the request runs.
// Violations no registry sentinel names wrap ErrInvalidConfig.
func (r Request) validate(base Config, m *Model) (*Model, error) {
	if m == nil {
		if r.Model == "" {
			return nil, fmt.Errorf("%w: request has no model", ErrInvalidConfig)
		}
		var err error
		if m, err = lookupModel(r.Model); err != nil {
			return nil, err
		}
	}
	if r.TimeoutMillis < 0 {
		return nil, fmt.Errorf("%w: request has negative TimeoutMillis %d", ErrInvalidConfig, r.TimeoutMillis)
	}
	if err := r.overlay(base).Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// overlay resolves the Config the request compiles under: its full
// Config override if present (else base), with the request's non-zero
// mapping fields on top.
func (r Request) overlay(base Config) Config {
	cfg := base
	if r.Config != nil {
		cfg = *r.Config
	}
	if r.ExtraPEs != 0 {
		cfg.ExtraPEs = r.ExtraPEs
	}
	if r.TotalPEs != 0 {
		cfg.TotalPEs = r.TotalPEs
	}
	if r.WeightDuplication {
		cfg.WeightDuplication = true
	}
	if r.Solver != "" {
		cfg.Solver = r.Solver
	}
	if r.SolverBudget != 0 {
		cfg.SolverBudget = r.SolverBudget
	}
	if r.SolverSeed != 0 {
		cfg.SolverSeed = r.SolverSeed
	}
	// A scored solver optimizes the makespan of a concrete scheduling
	// mode; absent an explicit choice, optimize for the mode the request
	// will actually be scheduled under.
	if cfg.WeightDuplication && cfg.SolverMode == "" && mapping.IsScored(cfg.Solver) {
		cfg.SolverMode = r.Mode.Name()
	}
	return cfg
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
	return ScheduleMode{p}, nil
}

// MarshalJSON encodes the mode by its wire name: "lbl", "xinf", or
// "x<K>" for bounded windows.
func (m ScheduleMode) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Name())
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
