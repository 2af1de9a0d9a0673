package main

import (
	"bytes"
	"strings"
	"testing"

	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/obs"
)

func filterSample() []obs.FlightEvent {
	return []obs.FlightEvent{
		{At: 1, Kind: obs.FMsaReq, Addr: 0x1000, Arg: uint32(isa.OpLock)},
		{At: 2, Kind: obs.FMsaReq, Addr: 0x2000, Arg: uint32(isa.OpLock)},
		{At: 3, Kind: obs.FCtxSwitch, Addr: 0}, // addr-less
	}
}

func TestFilter(t *testing.T) {
	kept := filterAddr(filterSample(), 0x1000)
	if len(kept) != 1 || kept[0].At != 1 {
		t.Fatalf("kept %+v, want only the 0x1000 event (not the other address nor the addr-less one)", kept)
	}
}

func TestFilterAddrZero(t *testing.T) {
	// Address 0 is a legal filter target: it keeps the addr-less events.
	kept := filterAddr(filterSample(), 0)
	if len(kept) != 1 || kept[0].Kind != obs.FCtxSwitch {
		t.Fatalf("kept %+v, want only the context switch", kept)
	}
}

func TestNoFilterRecordsEverything(t *testing.T) {
	var buf bytes.Buffer
	if err := render(&buf, obs.FlightDump{Total: 3, Events: filterSample()}, "text", nil, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "\n") - 2; n != 3 { // two header lines
		t.Errorf("rendered %d events, want 3:\n%s", n, out)
	}
	if strings.Contains(out, "suppressed") {
		t.Errorf("unfiltered render reports a filter:\n%s", out)
	}
}

// TestDump: the text timeline carries each event's fields and says what the
// rings overwrote, what the filter suppressed and what -last elided.
func TestDump(t *testing.T) {
	d := obs.FlightDump{Label: "demo", Total: 10, Events: []obs.FlightEvent{
		{At: 41, Tile: 1, Kind: obs.FIssue, Addr: 0x40, Core: 1, Arg: uint32(isa.OpLock)},
		{At: 42, Tile: 1, Kind: obs.FSilent, Addr: 0x40, Core: 3},
		{At: 43, Tile: 2, Kind: obs.FMsaReq, Addr: 0x80, Core: 3, Arg: uint32(isa.OpUnlock)},
	}}
	addr := memory.Addr(0x40)
	var buf bytes.Buffer
	if err := render(&buf, d, "text", &addr, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"demo", "3 of 10 total events retained", "1 events suppressed by the 0x40 address filter",
		"1 earlier events elided", "42", "silent", "0x40",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "issue") || strings.Contains(out, "0x80") {
		t.Errorf("dump shows an elided or filtered event:\n%s", out)
	}

	buf.Reset()
	addr = 0x80
	if err := render(&buf, d, "chrome", &addr, 1); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, `"tile 2"`) || strings.Contains(out, `"tile 1"`) {
		t.Errorf("chrome output ignores the address filter:\n%s", out)
	}
}
