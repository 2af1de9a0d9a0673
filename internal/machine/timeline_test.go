package machine_test

// The flight stream is the machine's only protocol-event log. These tests
// pin it against the timelines of the opt-in string-kinded protocol tracer
// it replaced (testdata/timeline_*.txt, recorded from that tracer): every
// old event is still in the stream, in order, under a fixed kind map, and
// the Chrome duration events are identical. They also check that tracing
// (enlarging the rings) costs one allocation per ring, not one per event.

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"misar/internal/cpu"
	"misar/internal/isa"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// oldKinds maps the retired recorder's string kinds onto flight kinds. Its
// "abort" and lock-to-software "steer" events have no kind of their own:
// they are the FMsaResp ABORT/FAIL recorded at the same cycle (oldResult).
var oldKinds = map[string]obs.FlightKind{
	"issue": obs.FIssue, "done": obs.FComplete, "ctxsw": obs.FCtxSwitch,
	"req": obs.FMsaReq, "resp": obs.FMsaResp, "msa": obs.FMsaMsg,
	"alloc": obs.FAlloc, "free": obs.FFree, "standby": obs.FStandby,
	"reclaim": obs.FReclaim, "grant": obs.FGrant, "revoke": obs.FRevoke,
	"silent": obs.FSilent,
}

var oldResult = map[string]isa.Result{"abort": isa.Abort, "steer": isa.Fail}

// pinnedEvent is one old event, as its (cycle, tile, core, addr, kind).
type pinnedEvent struct {
	at         sim.Time
	tile, core int16
	addr       memory.Addr
	kind       string
}

// readTimeline parses a pinned timeline: its events and its Chrome "X"
// events rendered as "name ts dur pid tid".
func readTimeline(t *testing.T, path string) (evs []pinnedEvent, xs []string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ev "):
			var e pinnedEvent
			if _, err := fmt.Sscanf(line, "ev %d %d %d %v %s", &e.at, &e.tile, &e.core, &e.addr, &e.kind); err != nil {
				t.Fatalf("%s: %q: %v", path, line, err)
			}
			evs = append(evs, e)
		case strings.HasPrefix(line, "x "):
			xs = append(xs, strings.TrimPrefix(line, "x "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs, xs
}

func (p pinnedEvent) matches(ev obs.FlightEvent) bool {
	if ev.At != p.at || ev.Tile != p.tile || ev.Core != p.core || ev.Addr != p.addr {
		return false
	}
	if res, ok := oldResult[p.kind]; ok {
		return ev.Kind == obs.FMsaResp && isa.Result(ev.Arg&0xff) == res
	}
	return ev.Kind == oldKinds[p.kind]
}

// checkTimeline asserts the flight stream holds the pinned timeline.
func checkTimeline(t *testing.T, path string, stream []obs.FlightEvent) {
	t.Helper()
	pinned, xs := readTimeline(t, path)
	if len(pinned) == 0 || len(xs) == 0 {
		t.Fatalf("%s: empty pinned timeline", path)
	}

	// Every pinned event, in order. An abort or steer shares its flight
	// event with the resp the old recorder logged right after it, so it is
	// checked without consuming that event.
	j := 0
	for i, p := range pinned {
		for j < len(stream) && !p.matches(stream[j]) {
			j++
		}
		if j == len(stream) {
			t.Fatalf("pinned event %d %+v missing from the flight stream (or out of order)", i, p)
		}
		if _, folded := oldResult[p.kind]; !folded {
			j++
		}
	}

	// Kinds with one recording site per old event occur exactly as often;
	// free and steer are recorded at more sites than the old recorder
	// covered (reclaim frees, OMU and capacity steers).
	want := map[obs.FlightKind]int{}
	for _, p := range pinned {
		if k, ok := oldKinds[p.kind]; ok && k != obs.FFree {
			want[k]++
		}
	}
	got := map[obs.FlightKind]int{}
	for _, ev := range stream {
		got[ev.Kind]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%v: %d in the flight stream, %d pinned", k, got[k], n)
		}
	}

	// A completion carries the op of its core's outstanding issue.
	issued := map[int16]uint32{}
	for _, ev := range stream {
		switch ev.Kind {
		case obs.FIssue:
			issued[ev.Core] = ev.Arg
		case obs.FComplete:
			if op, ok := issued[ev.Core]; !ok || ev.Arg>>8 != op {
				t.Fatalf("completion %v does not match core %d's issue (op %v)", ev, ev.Core, isa.SyncOp(op))
			}
		}
	}

	var gotX []string
	for _, e := range obs.ChromeEvents(stream) {
		if e.Ph == "X" {
			gotX = append(gotX, fmt.Sprintf("%s %d %d %d %d", e.Name, e.Ts, *e.Dur, e.Pid, e.Tid))
		}
	}
	if strings.Join(gotX, "\n") != strings.Join(xs, "\n") {
		t.Errorf("chrome duration events differ from the pinned ones: got %d, want %d", len(gotX), len(xs))
		for i := range min(len(gotX), len(xs)) {
			if gotX[i] != xs[i] {
				t.Errorf("first difference at %d: got %q, want %q", i, gotX[i], xs[i])
				break
			}
		}
	}
}

// runWorkload runs one workload app on a fresh machine; grow > 0 resizes
// every flight ring to grow events first (tracing).
func runWorkload(tb testing.TB, name string, cfg machine.Config, grow int) *machine.Machine {
	tb.Helper()
	app, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown app %q", name)
	}
	m := machine.New(cfg)
	if grow > 0 {
		for _, f := range m.Flights {
			f.Resize(grow)
		}
	}
	arena := syncrt.NewArena(0x1000000)
	m.SpawnAll(cfg.Tiles, app.Build(arena, cfg.Tiles, syncrt.HWLib()))
	if _, err := m.Run(workload.RunDeadline); err != nil {
		tb.Fatal(err)
	}
	return m
}

// wholeRun returns the machine's flight stream, failing if the rings
// overwrote any of it.
func wholeRun(t *testing.T, m *machine.Machine) []obs.FlightEvent {
	t.Helper()
	d := m.FlightDump()
	if d.Total != uint64(len(d.Events)) {
		t.Fatalf("rings kept %d of %d events; the timeline needs the whole run", len(d.Events), d.Total)
	}
	return d.Events
}

func TestFlightTimelineMatchesPinnedTrace(t *testing.T) {
	t.Run("bodytrack", func(t *testing.T) {
		m := runWorkload(t, "bodytrack", machine.MSAOMU(4, 1), 100_000)
		checkTimeline(t, "testdata/timeline_bodytrack_4c_msaomu1.txt", wholeRun(t, m))
	})
	t.Run("migrated-owner-abort", func(t *testing.T) {
		m := machine.New(machine.MSAOMU(4, 2))
		for _, f := range m.Flights {
			f.Resize(10_000)
		}
		runMigratedOwner(t, m)
		checkTimeline(t, "testdata/timeline_migrated_owner_abort.txt", wholeRun(t, m))
	})
}

// TestTracingAllocatesNothing: a traced run allocates exactly what an
// untraced one does, plus the one enlarged ring per shard.
func TestTracingAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		app   string
		tiles int
	}{{"bodytrack", 4}, {"fluidanimate", 8}} {
		cfg := machine.MSAOMU(c.tiles, 2)
		allocs := func(grow int) float64 {
			return testing.AllocsPerRun(2, func() { runWorkload(t, c.app, cfg, grow) })
		}
		bare, traced := allocs(0), allocs(100_000)
		t.Logf("%s at %d tiles: %.0f allocations untraced, %.0f traced", c.app, c.tiles, bare, traced)
		if traced > bare+1 {
			t.Errorf("%s at %d tiles: traced run allocates %.0f, untraced %.0f; want at most one more (the ring)",
				c.app, c.tiles, traced, bare)
		}
	}
}

// runMigratedOwner runs the migrated-owner scenario on m (4 tiles): the
// lock owner migrates mid-critical-section and unlocks from another core,
// so the queued waiters are aborted to software and must still make
// progress.
func runMigratedOwner(t *testing.T, m *machine.Machine) {
	t.Helper()
	arena := syncrt.NewArena(0x100000)
	lock := arena.Mutex()
	counter := arena.Data(1)
	lib := syncrt.HWLib()
	qn := []memory.Addr{arena.QNode(), arena.QNode(), arena.QNode()}

	t0 := m.Complex.Spawn(0, func(e cpu.Env) {
		rt := lib.Bind(e, qn[0])
		rt.Lock(lock)
		e.Compute(5000) // hold while being migrated
		e.Store(counter, e.Load(counter)+1)
		rt.Unlock(lock) // executed from core 3 after migration
	})
	waiter := func(i int) func(cpu.Env) {
		return func(e cpu.Env) {
			rt := lib.Bind(e, qn[i])
			e.Compute(300)
			rt.Lock(lock)
			e.Store(counter, e.Load(counter)+1)
			rt.Unlock(lock)
		}
	}
	t1 := m.Complex.Spawn(1, waiter(1))
	t2 := m.Complex.Spawn(2, waiter(2))
	m.Complex.Start(t0, 0, 0)
	m.Complex.Start(t1, 1, 0)
	m.Complex.Start(t2, 2, 0)
	// Migrate the owner mid-hold: it parks during its Compute, resumes on 3.
	m.Engine.At(1000, func() {
		m.Complex.Suspend(t0, func() {
			m.Engine.After(100, func() { m.Complex.Resume(t0, 3) })
		})
	})
	if _, err := m.Run(workload.RunDeadline); err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Load(counter); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestMigratedOwnerUnlockAbort(t *testing.T) {
	m := machine.New(machine.MSAOMU(4, 2))
	runMigratedOwner(t, m)
	if m.MSAStats().Aborts == 0 {
		t.Fatal("expected waiter aborts from the migrated-owner unlock")
	}
}
