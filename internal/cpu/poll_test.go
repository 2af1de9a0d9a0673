package cpu_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"misar/internal/cpu"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

// loopEnv is the reference for Env.Poll: it runs every Poll as the
// thread-side Load/Compute loop the core-side Poll replaces, one handoff
// per operation. With ops set it also logs each operation's issue and
// completion cycle.
type loopEnv struct {
	cpu.Env
	ops *[]pollOp
}

type pollOp struct {
	load       bool
	start, end sim.Time
}

func (e loopEnv) Poll(a memory.Addr, until cpu.Until, x, pause uint64) uint64 {
	v := e.load(a)
	for !until.Holds(v, x) {
		if pause > 0 { // Compute(0) is a no-op, so it is no boundary either
			start := e.Now()
			e.Compute(pause)
			e.log(false, start)
		}
		v = e.load(a)
	}
	return v
}

func (e loopEnv) load(a memory.Addr) uint64 {
	start := e.Now()
	v := e.Load(a)
	e.log(true, start)
	return v
}

func (e loopEnv) log(load bool, start sim.Time) {
	if e.ops != nil {
		*e.ops = append(*e.ops, pollOp{load, start, e.Now()})
	}
}

// pollOutcome is everything a run leaves behind that the Poll path could
// perturb.
type pollOutcome struct {
	End    sim.Time
	Fired  uint64
	Report string
	Flight obs.FlightDump
	Mem    []uint64
}

// newPollMachine builds a metered, invariant-checked machine whose flight
// rings hold the whole run, so the dump compares every recorded event.
func newPollMachine(cfg machine.Config) *machine.Machine {
	cfg.Metrics = true
	cfg.Invariants = true
	m := machine.New(cfg)
	for _, f := range m.Flights {
		f.Resize(1 << 17)
	}
	return m
}

// finish runs m and collects its outcome; memory is read word by word over
// [base, end).
func finish(t *testing.T, m *machine.Machine, name string, base, end memory.Addr) pollOutcome {
	t.Helper()
	at, err := m.Run(deadline)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep, err := json.Marshal(m.MetricsReport("poll", name, ""))
	if err != nil {
		t.Fatal(err)
	}
	out := pollOutcome{End: at, Fired: m.Engine.Fired(), Report: string(rep), Flight: m.FlightDump()}
	if out.Flight.Total != uint64(len(out.Flight.Events)) {
		t.Fatalf("%s: flight ring wrapped (%d of %d events)", name, len(out.Flight.Events), out.Flight.Total)
	}
	for a := base; a < end; a += 8 {
		out.Mem = append(out.Mem, m.Store.Load(a))
	}
	return out
}

func sameOutcome(t *testing.T, name string, got, want pollOutcome) {
	t.Helper()
	if got.End != want.End || got.Fired != want.Fired {
		t.Errorf("%s: end %d, %d fired; reference loop %d, %d fired", name, got.End, got.Fired, want.End, want.Fired)
	}
	if got.Report != want.Report {
		t.Errorf("%s: metrics report differs from the reference loop's", name)
	}
	if !reflect.DeepEqual(got.Flight, want.Flight) {
		t.Errorf("%s: flight dump differs from the reference loop's (%d vs %d events)",
			name, len(got.Flight.Events), len(want.Flight.Events))
	}
	if !reflect.DeepEqual(got.Mem, want.Mem) {
		t.Errorf("%s: final memory differs from the reference loop's", name)
	}
}

// syncProgram runs a lock, barrier and condition-variable program on lib:
// each phase a critical section, a barrier, a broadcast that every other
// thread waits for, and a second barrier. reference runs every Poll through
// loopEnv.
func syncProgram(t *testing.T, cfg machine.Config, lib *syncrt.Lib, reference bool) pollOutcome {
	const base, phases = 0x100000, 3
	tiles := cfg.Tiles
	m := newPollMachine(cfg)
	arena := syncrt.NewArena(base)
	lock := arena.Mutex()
	bar := arena.Barrier(tiles)
	cond := arena.Cond()
	counter := arena.Data(1)
	ready := arena.Data(1)
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	end := arena.Data(1)
	m.SpawnAll(tiles, func(tid int, e cpu.Env) {
		if reference {
			e = loopEnv{Env: e}
		}
		rt := lib.Bind(e, qnodes[tid])
		for p := uint64(1); p <= phases; p++ {
			e.Compute(uint64(tid*37+int(p)*11) % 89)
			rt.Lock(lock)
			v := e.Load(counter)
			e.Compute(5)
			e.Store(counter, v+1)
			rt.Unlock(lock)
			rt.Wait(bar)
			rt.Lock(lock)
			if tid == 0 {
				e.Store(ready, p)
				rt.CondBroadcast(cond)
			} else {
				for e.Load(ready) < p {
					rt.CondWait(cond, lock)
				}
			}
			rt.Unlock(lock)
			rt.Wait(bar)
		}
	})
	out := finish(t, m, lib.Desc(), base, end)
	if got := m.Store.Load(counter); got != uint64(tiles*phases) {
		t.Fatalf("%s: counter = %d, want %d", lib.Desc(), got, tiles*phases)
	}
	return out
}

// TestPollMatchesThreadLoop runs every software lock, barrier and
// condition-variable kind, software-only on the MSA machine and
// hardware-first on MSA-0 (every instruction FAILs into the software
// path), once with the core-side Poll and once with the thread-side loop:
// cycles, events, metrics, flight stream and memory must be identical.
func TestPollMatchesThreadLoop(t *testing.T) {
	locks := []syncrt.LockKind{syncrt.LockTTS, syncrt.LockSpin, syncrt.LockTicket, syncrt.LockMCS}
	bars := []syncrt.BarrierKind{syncrt.BarrierCentral, syncrt.BarrierTournament, syncrt.BarrierTree}
	conds := []syncrt.CondKind{syncrt.CondMesa, syncrt.CondNoSpurious}
	for _, tiles := range []int{4, 16} {
		for _, hw := range []bool{false, true} {
			cfg := machine.Default(tiles)
			if hw {
				cfg = machine.MSA0(tiles)
			}
			for _, lk := range locks {
				for _, bk := range bars {
					for _, ck := range conds {
						lib := &syncrt.Lib{UseHW: hw, Lock: lk, Barrier: bk, Cond: ck}
						name := fmt.Sprintf("%d/%s", tiles, lib.Desc())
						t.Run(name, func(t *testing.T) {
							got := syncProgram(t, cfg, lib, false)
							want := syncProgram(t, cfg, lib, true)
							sameOutcome(t, name, got, want)
						})
					}
				}
			}
		}
	}
}

// Suspension scenario: thread 0 polls flag until it reaches flagDone while
// thread 1 stores lower values (each store invalidates the poller's copy,
// so the next poll load misses) and finally flagDone.
const flagDone = 100

type suspendRun struct {
	pollOutcome
	parkedAt, returnedAt sim.Time
	value                uint64 // what the Poll returned
	suspends, migrations uint64
}

// suspendScenario runs the scenario with a Suspend of thread 0 requested at
// cycle at (none when at is 0); the thread resumes on core 2, 300 cycles
// after it parks. reference polls through loopEnv, logging into ops when
// ops is non-nil.
func suspendScenario(t *testing.T, pause uint64, at sim.Time, reference bool, ops *[]pollOp) suspendRun {
	const base = 0x100000
	m := newPollMachine(machine.Default(4))
	arena := syncrt.NewArena(base)
	flag := arena.Data(1)
	end := arena.Data(1)
	var r suspendRun
	m.SpawnAll(2, func(tid int, e cpu.Env) {
		if reference {
			e = loopEnv{Env: e, ops: ops}
		}
		if tid == 0 {
			r.value = e.Poll(flag, cpu.UntilGe, flagDone, pause)
			r.returnedAt = e.Now()
			e.Store(flag, 0)
			return
		}
		for v := uint64(1); v <= 4; v++ {
			e.Compute(500)
			e.Store(flag, v)
		}
		e.Compute(500)
		e.Store(flag, flagDone)
	})
	if at > 0 {
		th := m.Threads()[0]
		m.Engine.At(at, func() {
			m.Complex.Suspend(th, func() {
				r.parkedAt = m.Engine.Now()
				m.Engine.After(300, func() { m.Complex.Resume(th, 2) })
			})
		})
	}
	r.pollOutcome = finish(t, m, "suspend", base, end)
	for _, c := range m.Cores {
		r.suspends += c.Stats().Suspends
		r.migrations += c.Stats().Migrations
	}
	return r
}

// TestPollSuspendMatchesThreadLoop lands a Suspend (a) while one of a
// Poll's loads is in flight and (b) during one of its pauses, and resumes
// the thread on another core. The thread must park at that operation's
// completion, exactly where the thread-side loop parks, and the whole run
// must match the loop's.
func TestPollSuspendMatchesThreadLoop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pause  uint64
		inLoad bool
	}{
		{"load", 50, true},
		{"pause", 50, false},
		{"load-nopause", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Calibrate on an unsuspended reference run: pick the first
			// operation of the requested kind, from the Poll's fifth on,
			// that lasts two or more cycles, and a cycle strictly inside it.
			var ops []pollOp
			suspendScenario(t, tc.pause, 0, true, &ops)
			var pick *pollOp
			for i := 4; i < len(ops) && pick == nil; i++ {
				if op := ops[i]; op.load == tc.inLoad && op.end-op.start >= 2 {
					pick = &ops[i]
				}
			}
			if pick == nil {
				t.Fatalf("no %s operation of two or more cycles in %d", tc.name, len(ops))
			}
			at := pick.start + 1
			if !tc.inLoad {
				at = pick.start + (pick.end-pick.start)/2
			}
			got := suspendScenario(t, tc.pause, at, false, nil)
			want := suspendScenario(t, tc.pause, at, true, nil)
			if want.parkedAt != pick.end {
				t.Fatalf("reference loop parked at %d, want %d (end of the operation in flight at %d)",
					want.parkedAt, pick.end, at)
			}
			if got.parkedAt != want.parkedAt {
				t.Errorf("Poll parked at %d, reference loop at %d", got.parkedAt, want.parkedAt)
			}
			if got.value != flagDone || got.returnedAt != want.returnedAt {
				t.Errorf("Poll returned %d at %d; reference loop %d at %d", got.value, got.returnedAt, want.value, want.returnedAt)
			}
			if got.suspends != 1 || got.migrations != 1 {
				t.Errorf("%d suspends, %d migrations; want 1 each", got.suspends, got.migrations)
			}
			sameOutcome(t, tc.name, got.pollOutcome, want.pollOutcome)
		})
	}
}

func TestUntilHolds(t *testing.T) {
	const top = ^uint64(0)
	for _, c := range []struct {
		u    cpu.Until
		v, x uint64
		want bool
	}{
		{cpu.UntilEq, 3, 3, true},
		{cpu.UntilEq, 2, 3, false},
		{cpu.UntilEq, 4, 3, false},
		{cpu.UntilNe, 3, 3, false},
		{cpu.UntilNe, 2, 3, true},
		{cpu.UntilNe, 4, 3, true},
		{cpu.UntilGe, 3, 3, true},
		{cpu.UntilGe, 2, 3, false},
		{cpu.UntilGe, 4, 3, true},
		{cpu.UntilGe, top, 0, true}, // unsigned: a wrapped value is large
		{cpu.UntilGe, 0, top, false},
		{cpu.UntilEq, 0, 0, true}, // the zero value waits for equality
	} {
		if got := c.u.Holds(c.v, c.x); got != c.want {
			t.Errorf("Until(%d).Holds(%d, %d) = %v, want %v", c.u, c.v, c.x, got, c.want)
		}
	}
}
