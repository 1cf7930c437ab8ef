package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Schema identifies the BENCH_*.json document format. Bump the suffix
// on any incompatible change so downstream trajectory tooling can
// branch on it.
const Schema = "clsacim-bench/v1"

// Doc is the machine-readable result of one paperbench experiment,
// written as BENCH_<experiment>.json. Exactly one of the payload
// sections (TableI, TableII, Points, Ablations, Stream, Solver) is
// populated, matching the experiment kind; the envelope fields are
// always present. See the
// README "Verification & fuzzing" section for the field-by-field format
// description.
type Doc struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	// ElapsedMS is the wall-clock duration of the experiment in
	// milliseconds — the bench-trajectory signal for tracking
	// performance of the harness itself across revisions.
	ElapsedMS int64 `json:"elapsed_ms"`
	// PEmin accompanies TableI (paper Eq. 1 for the case-study model).
	PEmin     int             `json:"pe_min,omitempty"`
	TableI    []TableIRow     `json:"table1,omitempty"`
	TableII   []TableIIRow    `json:"table2,omitempty"`
	Points    []Point         `json:"points,omitempty"`
	Ablations []AblationPoint `json:"ablations,omitempty"`
	Stream    []StreamPoint   `json:"stream,omitempty"`
	Solver    []SolverPoint   `json:"solver,omitempty"`
}

// DocFilename returns the canonical file name of an experiment's doc.
func DocFilename(experiment string) string {
	return "BENCH_" + experiment + ".json"
}

// WriteDoc encodes d as indented JSON.
func WriteDoc(w io.Writer, d Doc) error {
	if d.Schema == "" {
		d.Schema = Schema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteDocFile writes d to dir/BENCH_<experiment>.json, creating dir if
// needed.
func WriteDocFile(dir string, d Doc) error {
	if d.Experiment == "" {
		return fmt.Errorf("bench: doc has no experiment name")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, DocFilename(d.Experiment))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDoc(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
