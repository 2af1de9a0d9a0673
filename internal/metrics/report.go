package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ReportSchema is the version stamp embedded in every JSON report. Bump it
// whenever a field is renamed, removed, or changes meaning; the golden test
// in report_golden_test.go pins the rendered form.
const ReportSchema = 1

// Report is the per-simulation observability artifact: identification of
// the run plus a full metrics snapshot. The harness attaches one to every
// metered simulation; cmd/misar-sim and cmd/misar-fig dump them as JSON.
//
// Marshalling is deterministic: fixed field order for the struct,
// lexicographically sorted keys for the instrument maps (encoding/json map
// behaviour), so two reports of the same simulation are byte-identical and
// reports diff cleanly across code changes.
type Report struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"` // "app" or "micro"
	App    string `json:"app"`
	Config string `json:"config"`
	Lib    string `json:"lib,omitempty"`
	Tiles  int    `json:"tiles"`
	Cycles uint64 `json:"cycles"`
	// Metrics is marshalled by inlining its maps as top-level counters/
	// gauges/histograms keys (see MarshalJSON), not as a nested object.
	Metrics Snapshot `json:"-"`
}

// MarshalJSON inlines the snapshot maps under stable top-level keys.
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report // break recursion
	return json.Marshal(&struct {
		*alias
		Counters   map[string]uint64            `json:"counters"`
		Gauges     map[string]uint64            `json:"gauges,omitempty"`
		Levels     map[string]int64             `json:"levels,omitempty"`
		Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	}{
		alias:      (*alias)(r),
		Counters:   r.Metrics.Counters,
		Gauges:     r.Metrics.Gauges,
		Levels:     r.Metrics.Levels,
		Histograms: r.Metrics.Histograms,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *Report) UnmarshalJSON(b []byte) error {
	type alias Report
	aux := struct {
		*alias
		Counters   map[string]uint64            `json:"counters"`
		Gauges     map[string]uint64            `json:"gauges"`
		Levels     map[string]int64             `json:"levels"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
	}{alias: (*alias)(r)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	r.Metrics = Snapshot{Counters: aux.Counters, Gauges: aux.Gauges, Levels: aux.Levels, Histograms: aux.Histograms}
	if r.Metrics.Counters == nil {
		r.Metrics.Counters = map[string]uint64{}
	}
	return nil
}

// WriteJSON writes the report as indented, newline-terminated JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshal report: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSONFile writes the report to path (creating parent directories).
func (r *Report) WriteJSONFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer f.Close()
	if err := r.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// Filename derives a deterministic, filesystem-safe name for the report,
// e.g. "app_fluidanimate_MSA-OMU-2-8c_hw.json".
func (r *Report) Filename() string {
	return sanitize(fmt.Sprintf("%s_%s_%s_%s", r.Kind, r.App, r.Config, r.Lib)) + ".json"
}

// sanitize keeps [A-Za-z0-9._-], mapping runs of anything else to one '-'.
func sanitize(s string) string {
	var b strings.Builder
	pending := false
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			if pending && b.Len() > 0 {
				b.WriteByte('-')
			}
			pending = false
			b.WriteRune(c)
		default:
			pending = true
		}
	}
	return b.String()
}
