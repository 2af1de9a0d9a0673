package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"misar/internal/isa"
	"misar/internal/sim"
)

func at(i int) sim.Time { return sim.Time(i) }

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{At: at(i), Kind: FMsaReq, Tile: int16(i)})
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	evs := f.Events()
	for i, ev := range evs {
		if want := at(6 + i); ev.At != want {
			t.Errorf("event %d at cycle %d, want %d (oldest-first after wrap)", i, ev.At, want)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(FlightEvent{At: 1})
	f.Record(FlightEvent{At: 2})
	evs := f.Events()
	if len(evs) != 2 || evs[0].At != 1 || evs[1].At != 2 {
		t.Fatalf("partial fill events = %+v", evs)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{}) // must not panic
	if f.Len() != 0 || f.Total() != 0 || f.Events() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

func TestFlightRecordZeroAllocs(t *testing.T) {
	f := NewFlightRecorder(64)
	ev := FlightEvent{At: 3, Kind: FMsaReq, Tile: 1, Core: 2, Addr: 0x40, Arg: uint32(isa.OpLock)}
	allocs := testing.AllocsPerRun(1000, func() { f.Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func TestFlightEventJSONRoundTrip(t *testing.T) {
	in := []FlightEvent{
		{At: 100, Kind: FMsaReq, Tile: 3, Core: 7, Addr: 0x1000040, Arg: uint32(isa.OpLock)},
		{At: 150, Kind: FMsaResp, Tile: 3, Core: 7, Addr: 0x1000040,
			Arg: uint32(isa.OpLock)<<8 | uint32(isa.Fail)},
		{At: 160, Kind: FSteer, Tile: 3, Core: -1, Addr: 0x1000040, Arg: uint32(isa.TypeLock)},
		{At: 90, Kind: FIssue, Tile: 7, Core: 7, Addr: 0x1000040, Arg: uint32(isa.OpLock)},
		{At: 170, Kind: FComplete, Tile: 7, Core: 7, Addr: 0x1000040,
			Arg: uint32(isa.OpLock)<<8 | uint32(isa.Fail)},
		{At: 180, Kind: FCtxSwitch, Tile: 7, Core: 7},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []FlightEvent
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost events: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
	for _, kind := range []string{"msa-resp", "issue", "complete", "ctx-switch"} {
		if !strings.Contains(string(blob), `"kind":"`+kind+`"`) {
			t.Errorf("marshalled form should name kind %q: %s", kind, blob)
		}
	}
}

func TestFlightEventDetail(t *testing.T) {
	resp := FlightEvent{Kind: FMsaResp, Arg: uint32(isa.OpLock)<<8 | uint32(isa.Fail)}
	if d := resp.Detail(); !strings.Contains(d, "LOCK") || !strings.Contains(d, "FAIL") {
		t.Errorf("resp detail %q should carry op and result", d)
	}
	for _, c := range []struct {
		ev   FlightEvent
		want string
	}{
		{FlightEvent{Kind: FIssue, Arg: uint32(isa.OpBarrier)}, "BARRIER"},
		{FlightEvent{Kind: FComplete, Arg: uint32(isa.OpUnlock)<<8 | uint32(isa.Abort)}, "UNLOCK ABORT"},
		{FlightEvent{Kind: FCtxSwitch}, ""},
	} {
		if d := c.ev.Detail(); d != c.want {
			t.Errorf("%v detail = %q, want %q", c.ev.Kind, d, c.want)
		}
	}
	RegisterArgNames(FCoh, []string{"GetS", "GetX"})
	if d := (FlightEvent{Kind: FCoh, Arg: 1}).Detail(); d != "GetX" {
		t.Errorf("registered arg name not used: %q", d)
	}
	if d := (FlightEvent{Kind: FCoh, Arg: 99}).Detail(); d != "arg=99" {
		t.Errorf("out-of-range arg should render numerically, got %q", d)
	}
}

// TestFlightRecorderResize: resizing keeps the newest events oldest-first,
// recording continues with the new capacity, and it costs one allocation.
func TestFlightRecorderResize(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ { // wrapped: retains 2..5
		f.Record(FlightEvent{At: at(i)})
	}
	f.Resize(8)
	for i := 6; i < 10; i++ {
		f.Record(FlightEvent{At: at(i)})
	}
	evs := f.Events()
	if len(evs) != 8 || f.Total() != 10 {
		t.Fatalf("after grow: len %d total %d, want 8 and 10", len(evs), f.Total())
	}
	for i, ev := range evs {
		if ev.At != at(2+i) {
			t.Fatalf("after grow: event %d at %d, want %d", i, ev.At, 2+i)
		}
	}
	f.Record(FlightEvent{At: at(10)}) // wraps the grown ring: retains 3..10
	f.Resize(3)
	if evs := f.Events(); len(evs) != 3 || evs[0].At != 8 || evs[2].At != 10 {
		t.Fatalf("after shrink: %+v, want cycles 8..10", evs)
	}
	f.Record(FlightEvent{At: at(11)})
	if evs := f.Events(); len(evs) != 3 || evs[0].At != 9 || evs[2].At != 11 {
		t.Fatalf("recording after shrink: %+v, want cycles 9..11", evs)
	}

	if a := testing.AllocsPerRun(10, func() { f.Resize(3) }); a != 0 {
		t.Errorf("same-capacity Resize allocates %.0f, want 0", a)
	}
	g := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		g.Record(FlightEvent{At: at(i)})
	}
	size := 4
	if a := testing.AllocsPerRun(10, func() { size *= 2; g.Resize(size) }); a != 1 {
		t.Errorf("Resize allocates %.0f, want 1 (the new ring)", a)
	}
	if g.Resize(0); cap(g.ring) != DefaultFlightCapacity {
		t.Errorf("Resize(0) capacity %d, want the default %d", cap(g.ring), DefaultFlightCapacity)
	}
	var nilRec *FlightRecorder
	nilRec.Resize(16) // must not panic
}

func TestFlightDumpSnapshot(t *testing.T) {
	f := NewFlightRecorder(2)
	for i := 0; i < 5; i++ {
		f.Record(FlightEvent{At: at(i)})
	}
	d := Dump(f)
	if d.Schema != FlightDumpSchema || d.Total != 5 || len(d.Events) != 2 {
		t.Fatalf("snapshot = %+v", d)
	}
	if d := Dump(); d.Schema != FlightDumpSchema || d.Total != 0 || d.Events != nil {
		t.Fatalf("dump of no recorders = %+v", d)
	}
}

// TestDumpMergesShardRings: a sharded machine's rings merge into one
// cycle-ordered stream, stable by recorder at equal cycles, and the total
// sums every ring's count, overwritten events included.
func TestDumpMergesShardRings(t *testing.T) {
	a, b := NewFlightRecorder(3), NewFlightRecorder(8)
	for _, c := range []int{1, 2, 4, 6, 9} { // a keeps 4, 6, 9
		a.Record(FlightEvent{At: at(c), Tile: 0})
	}
	for _, c := range []int{3, 4, 10} {
		b.Record(FlightEvent{At: at(c), Tile: 1})
	}
	d := Dump(a, b)
	if d.Total != 8 {
		t.Errorf("total = %d, want 8 (5 + 3)", d.Total)
	}
	want := []struct {
		at   sim.Time
		tile int16
	}{{3, 1}, {4, 0}, {4, 1}, {6, 0}, {9, 0}, {10, 1}}
	if len(d.Events) != len(want) {
		t.Fatalf("merged %d events, want %d: %+v", len(d.Events), len(want), d.Events)
	}
	for i, w := range want {
		if e := d.Events[i]; e.At != w.at || e.Tile != w.tile {
			t.Errorf("event %d = cycle %d tile %d, want cycle %d tile %d", i, e.At, e.Tile, w.at, w.tile)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { Dump(a, b) }); allocs != 1 {
		t.Errorf("Dump allocates %.0f times, want 1 (the merged slice)", allocs)
	}
}
