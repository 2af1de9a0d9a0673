package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteChromeValidJSON parses the envelope back: one object whose
// traceEvents entries all carry the mandatory fields, spans rebased so the
// timeline starts at zero.
func TestWriteChromeValidJSON(t *testing.T) {
	spans := []Span{
		{Trace: "t1", Proc: "served", Name: "job", Start: 1_000_050, Dur: 40},
		{Trace: "t1", Proc: "client", Name: "client.submit", Start: 1_000_000, Dur: 100},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Events []map[string]any `json:"traceEvents"`
		Unit   string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.Unit)
	}
	if len(out.Events) != 4 { // two process_name records, two spans
		t.Fatalf("got %d events, want 4:\n%s", len(out.Events), buf.String())
	}
	for _, e := range out.Events {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Errorf("event missing %q: %v", key, e)
			}
		}
		if e["name"] == "client.submit" && e["ts"] != float64(0) {
			t.Errorf("earliest span not rebased to 0: %v", e)
		}
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Events []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Events == nil || len(out.Events) != 0 {
		t.Fatalf("empty input produced %s, want an empty traceEvents array", buf.String())
	}
}
