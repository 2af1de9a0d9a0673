package machine_test

// Acceptance test for the always-on flight recorder: a deadlocked run's
// LivenessError must carry a non-empty flight dump whose trailing events
// agree with the watchdog's wait-for-graph diagnosis — the last LOCK request
// each blocked thread sent is the very address the diagnosis says it is
// waiting on, and no grant for it ever went back out.

import (
	"errors"
	"testing"

	"misar/internal/cpu"
	"misar/internal/isa"
	"misar/internal/machine"
	"misar/internal/obs"
	"misar/internal/syncrt"
)

// runABBADeadlock wedges two threads in a classic lock-order inversion and
// returns the resulting liveness error.
func runABBADeadlock(t *testing.T) error {
	t.Helper()
	const tiles = 4
	cfg := machine.MSAOMU(tiles, 2)
	cfg.Invariants = true
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()

	lockA := syncrt.Mutex{Addr: lineWithHome(arena, tiles, 0)}
	lockB := syncrt.Mutex{Addr: lineWithHome(arena, tiles, 1)}
	order := [][2]syncrt.Mutex{{lockA, lockB}, {lockB, lockA}}
	for i := 0; i < 2; i++ {
		i := i
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, arena.QNode())
			rt.Lock(order[i][0])
			e.Compute(2000)
			rt.Lock(order[i][1]) // never granted
			rt.Unlock(order[i][1])
			rt.Unlock(order[i][0])
		})
		m.Complex.Start(th, i, 0)
	}
	_, err := m.Run(1_000_000)
	if err == nil {
		t.Fatal("ABBA scenario completed cleanly; the wedge did not happen")
	}
	return err
}

func TestFlightDumpMatchesWatchdogDiagnosis(t *testing.T) {
	err := runABBADeadlock(t)
	var le *machine.LivenessError
	if !errors.As(err, &le) {
		t.Fatalf("want *machine.LivenessError, got %T: %v", err, err)
	}
	dump, ok := machine.FlightOf(err)
	flight := dump.Events
	if !ok || len(flight) == 0 {
		t.Fatal("liveness error carries an empty flight dump")
	}
	if dump.Total < uint64(len(flight)) {
		t.Errorf("dump total %d below its %d retained events", dump.Total, len(flight))
	}
	if le.Diag == nil || len(le.Diag.Blocked) == 0 {
		t.Fatal("no watchdog diagnosis to cross-check against")
	}

	// The dump must be in simulated-time order (the ring unrolls oldest
	// first).
	for i := 1; i < len(flight); i++ {
		if flight[i].At < flight[i-1].At {
			t.Fatalf("flight dump out of order at %d: %v after %v", i, flight[i], flight[i-1])
		}
	}

	// Agreement, per blocked thread: the last MSA request this core sent is
	// a LOCK for exactly the address the watchdog says the thread is
	// waiting on, and no successful response for it ever followed.
	for _, td := range le.Diag.Blocked {
		if td.OutAddr == 0 || td.Core < 0 {
			continue
		}
		lastReq := -1
		for i, ev := range flight {
			if ev.Kind == obs.FMsaReq && int(ev.Core) == td.Core {
				lastReq = i
			}
		}
		if lastReq < 0 {
			t.Errorf("thread %d: no MSA request from core %d in the flight dump", td.ID, td.Core)
			continue
		}
		req := flight[lastReq]
		if req.Addr != td.OutAddr {
			t.Errorf("thread %d: last flight request is for %#x, diagnosis says waiting on %#x",
				td.ID, uint64(req.Addr), uint64(td.OutAddr))
		}
		if op := isa.SyncOp(req.Arg); op != isa.OpLock {
			t.Errorf("thread %d: last flight request is %v, want LOCK", td.ID, op)
		}
		for _, ev := range flight[lastReq:] {
			if ev.Kind == obs.FMsaResp && int(ev.Core) == td.Core && ev.Addr == td.OutAddr &&
				isa.Result(ev.Arg&0xff) == isa.Success {
				t.Errorf("thread %d: flight shows a grant for %#x after the supposedly blocked request",
					td.ID, uint64(td.OutAddr))
			}
		}
	}

	// Every wait-for edge's lock must have protocol history in the dump.
	for _, edge := range le.Diag.Edges {
		seen := false
		for _, ev := range flight {
			if ev.Addr == edge.Addr {
				seen = true
				break
			}
		}
		if !seen {
			t.Errorf("wait-for edge lock %#x absent from the flight dump", uint64(edge.Addr))
		}
	}
}

// TestFlightRecorderAlwaysOn checks a healthy run records flight events too
// (the recorder is not failure-gated), the cores' instruction events
// included.
func TestFlightRecorderAlwaysOn(t *testing.T) {
	const tiles = 4
	cfg := machine.MSAOMU(tiles, 2)
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()
	lock := syncrt.Mutex{Addr: lineWithHome(arena, tiles, 0)}
	for i := 0; i < 2; i++ {
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, arena.QNode())
			rt.Lock(lock)
			e.Compute(100)
			rt.Unlock(lock)
		})
		m.Complex.Start(th, i, 0)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	evs := m.FlightEvents()
	if len(evs) == 0 {
		t.Fatal("clean run recorded no flight events")
	}
	var reqs, cohs, issues int
	for _, ev := range evs {
		switch ev.Kind {
		case obs.FMsaReq:
			reqs++
		case obs.FCoh:
			cohs++
		case obs.FIssue:
			issues++
		}
	}
	if reqs == 0 {
		t.Error("no MSA requests in the flight ring")
	}
	if cohs == 0 {
		t.Error("no coherence deliveries in the flight ring")
	}
	if issues != reqs {
		t.Errorf("%d sync instructions issued, %d MSA requests delivered; want equal (no silent path here)", issues, reqs)
	}
}
