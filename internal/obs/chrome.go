package obs

import (
	"fmt"
	"io"
	"slices"

	"misar/internal/trace"
)

// Chrome trace-event export of the flight stream: renders protocol events
// in the Trace Event Format that chrome://tracing and Perfetto
// (ui.perfetto.dev) load, so MSA protocol activity can be inspected in a
// real trace UI instead of a text dump.
//
// Mapping:
//   - pid is the tile that recorded the event; every tile gets a
//     process_name metadata record.
//   - tid is the involved core, or the tile's MSA pseudo-thread (msaTid)
//     for slice-internal events with no core.
//   - A core's FIssue/FComplete pair becomes one complete ("X") duration
//     event spanning the instruction's latency; each core has at most one
//     outstanding synchronization instruction, so pairing by core is exact.
//   - Everything else becomes a thread-scoped instant ("i") event.
//   - ts/dur are simulated cycles presented as microseconds (the format's
//     only time unit); 1 cycle reads as 1 µs in the UI.

// msaTid is the synthetic thread id used for slice events with no core.
const msaTid = 1000

func tidOf(ev FlightEvent) int {
	if ev.Core >= 0 {
		return int(ev.Core)
	}
	return msaTid
}

func chromeArgs(ev FlightEvent) map[string]string {
	a := map[string]string{"kind": ev.Kind.String()}
	if ev.Addr != 0 {
		a["addr"] = fmt.Sprintf("%#x", uint64(ev.Addr))
	}
	if d := ev.Detail(); d != "" {
		a["detail"] = d
	}
	return a
}

func chromeInstant(name string, ev FlightEvent) trace.ChromeEvent {
	return trace.ChromeEvent{
		Name: name, Ph: "i", Ts: uint64(ev.At),
		Pid: int(ev.Tile), Tid: tidOf(ev), S: "t", Args: chromeArgs(ev),
	}
}

// ChromeEvents converts a flight stream (oldest first, as FlightRecorder.
// Events and Machine.FlightEvents return it) into Chrome trace events.
// Exposed separately from WriteChrome so tests can validate the structure
// before marshalling.
func ChromeEvents(events []FlightEvent) []trace.ChromeEvent {
	out := make([]trace.ChromeEvent, 0, len(events)+8)

	// Metadata: name the processes (tiles) and the MSA pseudo-threads that
	// appear, in first-appearance order (deterministic: input order is
	// chronological).
	seenTile := map[int16]bool{}
	seenMsa := map[int16]bool{}
	for _, ev := range events {
		if !seenTile[ev.Tile] {
			seenTile[ev.Tile] = true
			out = append(out, trace.ChromeEvent{
				Name: "process_name", Ph: "M", Pid: int(ev.Tile),
				Args: map[string]string{"name": fmt.Sprintf("tile %d", ev.Tile)},
			})
		}
		if ev.Core < 0 && !seenMsa[ev.Tile] {
			seenMsa[ev.Tile] = true
			out = append(out, trace.ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: int(ev.Tile), Tid: msaTid,
				Args: map[string]string{"name": "msa slice"},
			})
		}
	}

	// Pair each core's FIssue with its FComplete into a duration event; at
	// most one synchronization instruction is outstanding per core. Silent
	// acquisitions complete locally and never produce an FComplete, so an
	// issue superseded by a new issue degrades to an instant event.
	pending := map[int16]FlightEvent{} // core -> outstanding FIssue
	flush := func(core int16) {
		if iss, ok := pending[core]; ok {
			out = append(out, chromeInstant(iss.Detail(), iss))
			delete(pending, core)
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case FIssue:
			flush(ev.Core)
			pending[ev.Core] = ev
		case FComplete:
			iss, ok := pending[ev.Core]
			if !ok {
				out = append(out, chromeInstant(ev.Detail(), ev))
				continue
			}
			dur := uint64(ev.At - iss.At)
			out = append(out, trace.ChromeEvent{
				Name: iss.Detail(), Ph: "X", Ts: uint64(iss.At), Dur: &dur,
				Pid: int(iss.Tile), Tid: tidOf(iss), Args: chromeArgs(ev),
			})
			delete(pending, ev.Core)
		default:
			out = append(out, chromeInstant(ev.Kind.String(), ev))
		}
	}
	// Issues still outstanding at the end of the stream, in core order so
	// the output stays deterministic.
	left := make([]int16, 0, len(pending))
	for core := range pending {
		left = append(left, core)
	}
	slices.Sort(left)
	for _, core := range left {
		flush(core)
	}
	return out
}

// WriteChrome writes the flight stream as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing.
func WriteChrome(w io.Writer, events []FlightEvent) error {
	return trace.WriteChromeEvents(w, ChromeEvents(events))
}
