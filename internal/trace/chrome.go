// Package trace holds the Chrome trace-event format (chrome://tracing,
// ui.perfetto.dev) shared by the repo's two timelines: wall-clock serving
// spans (Span, WriteChromeSpans) and the simulator's protocol-event stream,
// which obs.WriteChrome converts from flight-recorder events. Both end in
// WriteChromeEvents, so every exported trace has the same envelope.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one entry of the traceEvents array. Ts and Dur are
// microseconds, the format's only time unit.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  *uint64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope Perfetto expects.
type chromeTrace struct {
	Events          []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeEvents wraps converted events in the Perfetto envelope and
// writes them as indented JSON. An empty trace still carries its (empty)
// traceEvents array.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{}
	}
	tr := chromeTrace{
		Events:          events,
		DisplayTimeUnit: "ms",
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(tr); err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return nil
}
