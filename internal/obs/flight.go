// Package obs is the observability layer: the flight recorder, the one
// stream of simulator protocol events, plus wall-clock span recording for
// end-to-end request tracing and trace-ID propagation through contexts.
//
// The two halves mirror the repo's two time domains. The FlightRecorder
// lives inside one simulated machine and records *simulated-time* events
// (instruction issue and completion at the cores, MSA operations, OMU
// steers, entry lifecycle, coherence deliveries, transactions) into a fixed
// ring with zero allocations. It is always on, so the last moments before a
// liveness or safety failure are always available post mortem; enlarged
// with Resize, the same ring is the protocol trace that WriteChrome renders
// for Perfetto. The span Recorder lives in the serving processes and
// records *wall-clock* intervals (client submit, queue wait, store lookup,
// simulation phases) tagged with a trace ID minted at the edge, so one
// served job renders as a single timeline in Perfetto (see
// trace.WriteChromeSpans).
package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/sim"
)

// FlightKind classifies one flight-recorder event.
type FlightKind uint8

// Flight event kinds. The Arg encodings are fixed per kind and documented
// here; Detail decodes them for humans.
const (
	FNone      FlightKind = iota
	FMsaReq               // MSA request delivered to a home slice; Arg = isa.SyncOp
	FMsaResp              // MSA response delivered to a core; Arg = op<<8 | isa.Result
	FMsaMsg               // MSA-to-MSA cond-protocol message; Arg = internal kind
	FCoh                  // coherence message delivered; Arg = coherence MsgKind
	FSteer                // OMU steered an acquire to software; Arg = isa.SyncType
	FCapSteer             // capacity steer (no entry allocatable); Arg = isa.SyncType
	FAlloc                // MSA entry allocated; Arg = isa.SyncType
	FFree                 // MSA entry deallocated; Arg = isa.SyncType
	FStandby              // entry entered standby; Arg = isa.SyncType
	FReclaim              // standby entry reclaim started; Arg = isa.SyncType
	FGrant                // HWSync block grant shipped; Core = grantee
	FRevoke               // standby revocation issued
	FSilent               // LOCK_SILENT recorded
	FTxBegin              // TM transaction attempt began; Arg = attempt number (0 = first)
	FTxCommit             // TM transaction committed; Arg = write-set size
	FTxAbort              // TM transaction aborted; Arg = tm abort reason (see tm.AbortReason)
	FIssue                // core issued a sync instruction; Tile = Core = issuing core, Arg = isa.SyncOp
	FComplete             // core's outstanding sync instruction completed; Arg = op<<8 | isa.Result
	FCtxSwitch            // core switched threads (HWSync bits and grant entitlements dropped)
	numFlightKinds
)

var flightKindNames = [numFlightKinds]string{
	FNone:      "none",
	FMsaReq:    "msa-req",
	FMsaResp:   "msa-resp",
	FMsaMsg:    "msa-msg",
	FCoh:       "coh",
	FSteer:     "steer",
	FCapSteer:  "cap-steer",
	FAlloc:     "alloc",
	FFree:      "free",
	FStandby:   "standby",
	FReclaim:   "reclaim",
	FGrant:     "grant",
	FRevoke:    "revoke",
	FSilent:    "silent",
	FTxBegin:   "tx-begin",
	FTxCommit:  "tx-commit",
	FTxAbort:   "tx-abort",
	FIssue:     "issue",
	FComplete:  "complete",
	FCtxSwitch: "ctx-switch",
}

func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("FlightKind(%d)", uint8(k))
}

// flightKindByName is the inverse of flightKindNames, for decoding dumps.
var flightKindByName = func() map[string]FlightKind {
	m := make(map[string]FlightKind, numFlightKinds)
	for k, n := range flightKindNames {
		m[n] = FlightKind(k)
	}
	return m
}()

// argNames holds optional per-kind Arg decode tables registered by the
// packages that own the encodings obs cannot import (e.g. machine registers
// the coherence message-kind names for FCoh). Read-mostly; written at init.
var (
	argNamesMu sync.RWMutex
	argNames   = map[FlightKind][]string{}
)

// RegisterArgNames installs a decode table for kind's Arg values: Arg n
// renders as names[n] in Detail. Unregistered or out-of-range args render
// numerically, so registration is cosmetic, never required.
func RegisterArgNames(kind FlightKind, names []string) {
	argNamesMu.Lock()
	argNames[kind] = names
	argNamesMu.Unlock()
}

func argName(kind FlightKind, arg uint32) (string, bool) {
	argNamesMu.RLock()
	names := argNames[kind]
	argNamesMu.RUnlock()
	if int(arg) < len(names) {
		return names[arg], true
	}
	return "", false
}

// FlightEvent is one compact flight-recorder entry. The struct is plain
// value data — no strings, no pointers — so recording is a single ring-slot
// store and a dump marshals without touching the machine again.
type FlightEvent struct {
	At   sim.Time    // simulated cycle
	Addr memory.Addr // synchronization / cache-line address (0 when n/a)
	Arg  uint32      // kind-specific payload, see the FlightKind docs
	Kind FlightKind
	Tile int16 // tile that recorded the event (the home slice / destination)
	Core int16 // core or peer tile involved, -1 when n/a
}

// Detail renders the kind-specific Arg for humans.
func (e FlightEvent) Detail() string {
	switch e.Kind {
	case FMsaReq, FIssue:
		return isa.SyncOp(e.Arg).String()
	case FMsaResp, FComplete:
		return isa.SyncOp(e.Arg>>8).String() + " " + isa.Result(e.Arg&0xff).String()
	case FSteer, FCapSteer, FAlloc, FFree, FStandby, FReclaim:
		return isa.SyncType(e.Arg).String()
	default:
		if n, ok := argName(e.Kind, e.Arg); ok {
			return n
		}
		if e.Arg != 0 {
			return fmt.Sprintf("arg=%d", e.Arg)
		}
		return ""
	}
}

func (e FlightEvent) String() string {
	return fmt.Sprintf("%10d  tile %-2d %-10s core %-3d %#10x  %s",
		e.At, e.Tile, e.Kind, e.Core, uint64(e.Addr), e.Detail())
}

// flightEventJSON is the wire form of one event (kind by name, arg decoded).
type flightEventJSON struct {
	At     uint64 `json:"at"`
	Kind   string `json:"kind"`
	Tile   int16  `json:"tile"`
	Core   int16  `json:"core"`
	Addr   uint64 `json:"addr,omitempty"`
	Arg    uint32 `json:"arg,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// MarshalJSON renders the event with its kind named and its Arg decoded.
func (e FlightEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(flightEventJSON{
		At: uint64(e.At), Kind: e.Kind.String(), Tile: e.Tile, Core: e.Core,
		Addr: uint64(e.Addr), Arg: e.Arg, Detail: e.Detail(),
	})
}

// UnmarshalJSON is the inverse of MarshalJSON (the decoded Detail is
// regenerated, not read back).
func (e *FlightEvent) UnmarshalJSON(b []byte) error {
	var j flightEventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	kind, ok := flightKindByName[j.Kind]
	if !ok {
		return fmt.Errorf("obs: unknown flight event kind %q", j.Kind)
	}
	*e = FlightEvent{
		At: sim.Time(j.At), Kind: kind, Tile: j.Tile, Core: j.Core,
		Addr: memory.Addr(j.Addr), Arg: j.Arg,
	}
	return nil
}

// DefaultFlightCapacity is the per-machine ring size: large enough to span
// the window between a fault and the watchdog tripping (tens of thousands of
// simulated cycles of sync traffic), small enough that every machine carries
// one without thought (~128 KiB).
const DefaultFlightCapacity = 4096

// FlightRecorder is a fixed-size ring of the most recent FlightEvents. It is
// single-writer by construction — the simulator's event loop is
// single-threaded — so Record is one bounds-checked store and two integer
// updates: no locks, no allocations, nothing on the hot path that can grow.
// A nil *FlightRecorder records nothing, so call sites never branch beyond
// the receiver check.
//
// Readers (error dumps, the /flight endpoint) must only call Events or
// Dump after the simulation has stopped; the recorder is not a
// concurrent structure, it is a crash recorder.
type FlightRecorder struct {
	ring  []FlightEvent
	next  int
	total uint64 // events ever recorded (total - len(ring) were overwritten)
}

// NewFlightRecorder builds a recorder holding the last capacity events;
// capacity < 1 selects DefaultFlightCapacity.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: make([]FlightEvent, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full. Safe on a nil
// receiver. Zero allocations.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	f.total++
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, ev)
		return
	}
	f.ring[f.next] = ev
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
}

// Resize changes the ring's capacity in place, keeping the newest retained
// events oldest-first; capacity < 1 selects DefaultFlightCapacity. Every
// component holds the recorder by pointer, so a machine's rings become a
// full protocol trace by resizing them before the run, with no component
// re-wired. One allocation (none when the capacity is unchanged); like
// Events, call it only while the simulation is stopped. Safe on a nil
// receiver.
func (f *FlightRecorder) Resize(capacity int) {
	if f == nil {
		return
	}
	if capacity < 1 {
		capacity = DefaultFlightCapacity
	}
	if capacity == cap(f.ring) {
		return
	}
	n := len(f.ring)
	keep := min(n, capacity)
	ring := make([]FlightEvent, keep, capacity)
	// The oldest retained event sits at f.next once the ring has wrapped
	// (f.next is 0 until then); copy the newest keep events after it.
	for i := range ring {
		ring[i] = f.ring[(f.next+n-keep+i)%n]
	}
	f.ring, f.next = ring, 0
}

// Len reports how many events are retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Total reports how many events were ever recorded (Total - Len were lost
// to ring overwrites).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.total
}

// Events returns the retained events oldest-first. The slice is a copy; the
// recorder can keep running (though see the type docs on concurrency).
func (f *FlightRecorder) Events() []FlightEvent { return Dump(f).Events }

// FlightDumpSchema versions the serialized FlightDump layout.
const FlightDumpSchema = "misar-flight/v1"

// FlightDump is the serializable snapshot of a recorder, as returned by the
// job server's /flight endpoint and consumed by misar-trace -from-flight.
type FlightDump struct {
	Schema string        `json:"schema"`
	Job    string        `json:"job,omitempty"`   // serving job ID, when known
	Label  string        `json:"label,omitempty"` // experiment label
	Trace  string        `json:"trace,omitempty"` // serving trace ID
	Total  uint64        `json:"total"`           // events ever recorded
	Events []FlightEvent `json:"events"`
}

// Dump snapshots one machine's flight stream: its recorders' rings (one
// per shard) merged by cycle, stable by recorder, with Total summed over
// the rings so the dump says how much they overwrote (Total -
// len(Events)). One allocation; like Events, call it only while the
// simulation is stopped.
func Dump(recs ...*FlightRecorder) FlightDump {
	d := FlightDump{Schema: FlightDumpSchema}
	n := 0
	for _, f := range recs {
		n += f.Len()
		d.Total += f.Total()
	}
	if n == 0 {
		return d
	}
	d.Events = make([]FlightEvent, 0, n)
	for _, f := range recs {
		if f.Len() > 0 { // oldest first: a wrapped ring's oldest event is at next (0 until then)
			d.Events = append(append(d.Events, f.ring[f.next:]...), f.ring[:f.next]...)
		}
	}
	if len(recs) > 1 {
		slices.SortStableFunc(d.Events, func(x, y FlightEvent) int { return cmp.Compare(x.At, y.At) })
	}
	return d
}
