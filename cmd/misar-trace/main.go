// Command misar-trace runs a benchmark with enlarged flight-recorder rings
// and prints the chronological protocol timeline: sync instruction issue and
// completion at the cores, MSA requests, grants, aborts, entry lifecycle,
// silent acquisitions, the condition-variable MSA-to-MSA handshakes and the
// coherence deliveries between them.
//
// Usage:
//
//	misar-trace -app fluidanimate -tiles 8 -last 40
//	misar-trace -app streamcluster -tiles 16 -addr 0x1000040
//	misar-trace -app fluidanimate -tiles 8 -format chrome > trace.json
//	misar-trace -from-flight flight.json -format chrome > trace.json
//
// -format chrome emits the timeline as Chrome trace-event JSON on stdout,
// loadable in ui.perfetto.dev or chrome://tracing.
//
// -from-flight renders a flight-recorder dump instead of running a
// simulation: the JSON served by misar-served's GET /v1/jobs/{id}/flight
// (or embedded in a liveness/safety/panic error), so the tail of events
// leading up to a failure opens in the same text or Perfetto views as a
// live trace. "-" reads the dump from stdin.
//
// -addr keeps only the events of one synchronization address, in either
// mode; the text header counts the events it suppressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

func main() {
	appName := flag.String("app", "fluidanimate", "benchmark name")
	tiles := flag.Int("tiles", 8, "core count")
	entries := flag.Int("entries", 2, "MSA entries per slice")
	capacity := flag.Int("buffer", 100_000, "flight-ring capacity (events per shard)")
	last := flag.Int("last", 100, "print only the last N events (0 = all)")
	addr := flag.String("addr", "", "filter to one sync address (hex)")
	format := flag.String("format", "text", "output format: text or chrome (trace-event JSON for Perfetto)")
	fromFlight := flag.String("from-flight", "", "render a flight-recorder dump (JSON file, or - for stdin) instead of simulating")
	flag.Parse()

	if *format != "text" && *format != "chrome" {
		fmt.Fprintf(os.Stderr, "misar-trace: unknown -format %q (want text or chrome)\n", *format)
		os.Exit(2)
	}
	var filter *memory.Addr
	if *addr != "" {
		v, err := strconv.ParseUint(strings.TrimPrefix(*addr, "0x"), 16, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "misar-trace: bad -addr %q\n", *addr)
			os.Exit(2)
		}
		a := memory.Addr(v)
		filter = &a
	}

	var dump obs.FlightDump
	if *fromFlight != "" {
		var err error
		if dump, err = readFlight(*fromFlight); err != nil {
			fmt.Fprintln(os.Stderr, "misar-trace:", err)
			os.Exit(2) // bad input, same convention as -app/-addr
		}
	} else {
		app, ok := workload.ByName(*appName)
		if !ok {
			fmt.Fprintf(os.Stderr, "misar-trace: unknown app %q\n", *appName)
			os.Exit(2)
		}
		cfg := machine.MSAOMU(*tiles, *entries)
		m := machine.New(cfg)
		for _, f := range m.Flights {
			f.Resize(*capacity)
		}
		arena := syncrt.NewArena(0x1000000)
		m.SpawnAll(cfg.Tiles, app.Build(arena, cfg.Tiles, syncrt.HWLib()))
		cycles, err := m.Run(workload.RunDeadline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "misar-trace:", err)
			os.Exit(1)
		}
		dump = m.FlightDump()
		dump.Label = fmt.Sprintf("%s on %s, %d cycles", app.Name, cfg.Name, cycles)
	}
	if err := render(os.Stdout, dump, *format, filter, *last); err != nil {
		fmt.Fprintln(os.Stderr, "misar-trace:", err)
		os.Exit(1)
	}
}

// readFlight decodes a flight-recorder dump from a file, or stdin for "-".
func readFlight(path string) (obs.FlightDump, error) {
	var dump obs.FlightDump
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return dump, err
		}
		defer f.Close()
		r = f
	}
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return dump, fmt.Errorf("decode flight dump: %w", err)
	}
	if dump.Schema != "" && dump.Schema != obs.FlightDumpSchema {
		return dump, fmt.Errorf("unknown flight dump schema %q (want %q)", dump.Schema, obs.FlightDumpSchema)
	}
	return dump, nil
}

// filterAddr keeps the events of one synchronization address. Address 0 is
// a valid filter: it keeps the addr-less events, such as context switches.
func filterAddr(events []obs.FlightEvent, addr memory.Addr) []obs.FlightEvent {
	var kept []obs.FlightEvent
	for _, ev := range events {
		if ev.Addr == addr {
			kept = append(kept, ev)
		}
	}
	return kept
}

// render writes a flight dump's events as Chrome trace-event JSON or as a
// text timeline, keeping only one address's events when filter is set. The
// text header says what the rings overwrote and what the filter suppressed,
// so a quiet timeline is distinguishable from a quiet run.
func render(w io.Writer, d obs.FlightDump, format string, filter *memory.Addr, last int) error {
	events := d.Events
	if filter != nil {
		events = filterAddr(events, *filter)
	}
	if format == "chrome" {
		return obs.WriteChrome(w, events)
	}
	label := d.Label
	if label == "" {
		label = "(unlabelled)"
	}
	fmt.Fprintf(w, "# flight dump %s: job %s, trace %s, %d of %d total events retained\n",
		label, orDash(d.Job), orDash(d.Trace), len(d.Events), d.Total)
	if filter != nil {
		fmt.Fprintf(w, "# %d events suppressed by the %#x address filter\n", len(d.Events)-len(events), uint64(*filter))
	}
	fmt.Fprintf(w, "# %10s  %-7s %-10s %-8s %-11s detail\n", "cycle", "tile", "kind", "core", "addr")
	if last > 0 && len(events) > last {
		fmt.Fprintf(w, "# ... %d earlier events elided (use -last 0 for all)\n", len(events)-last)
		events = events[len(events)-last:]
	}
	for _, ev := range events {
		fmt.Fprintln(w, ev)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
