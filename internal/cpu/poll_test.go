package cpu_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// envKind selects how a run's threads reach the machine: through the Env
// the machine hands them, or through one of the references it must match.
type envKind uint8

const (
	production envKind = iota
	threadLoop         // loopEnv: every Poll as the thread-side loop
	unposted           // unpostedEnv: every Compute and Store its own handoff
)

func (k envKind) String() string { return [...]string{"production", "thread loop", "unposted"}[k] }

// wrap returns e as a thread of kind k sees it, logging into ops when ops
// is non-nil.
func (k envKind) wrap(e cpu.Env, ops *[]pollOp) cpu.Env {
	switch k {
	case threadLoop:
		return loopEnv{Env: e, ops: ops}
	case unposted:
		return unpostedEnv{Env: e, ops: ops}
	}
	return e
}

// pollOp is one logged operation: its kind and its issue and completion
// cycles.
type pollOp struct {
	kind       opKind
	start, end sim.Time
}

type opKind uint8

const (
	opLoad opKind = iota
	opCompute
	opStore
)

func logOp(e cpu.Env, ops *[]pollOp, kind opKind, start sim.Time) {
	end := e.Now()
	if ops != nil {
		*ops = append(*ops, pollOp{kind, start, end})
	}
}

// loopEnv is the reference for Env.Poll: it runs every Poll as the
// thread-side Load/Compute loop the core-side Poll replaces. With ops set
// it logs each load and pause.
type loopEnv struct {
	cpu.Env
	ops *[]pollOp
}

func (e loopEnv) Poll(a memory.Addr, until cpu.Until, x, pause uint64) uint64 {
	v := e.load(a)
	for !until.Holds(v, x) {
		if pause > 0 { // Compute(0) is a no-op, so it is no boundary either
			start := e.Now()
			e.Compute(pause)
			logOp(e, e.ops, opCompute, start)
		}
		v = e.load(a)
	}
	return v
}

func (e loopEnv) load(a memory.Addr) uint64 {
	start := e.Now()
	v := e.Load(a)
	logOp(e, e.ops, opLoad, start)
	return v
}

// unpostedEnv is the reference for posted operations: each Compute and
// Store ends with Now(), which lets it commit before the thread runs on, so
// every operation is its own handoff, as before Compute and Store were
// posted. With ops set it logs each Compute and Store.
type unpostedEnv struct {
	cpu.Env
	ops *[]pollOp
}

func (e unpostedEnv) Compute(cycles uint64) {
	start := e.Now()
	e.Env.Compute(cycles)
	logOp(e, e.ops, opCompute, start)
}

func (e unpostedEnv) Store(a memory.Addr, v uint64) {
	start := e.Now()
	e.Env.Store(a, v)
	logOp(e, e.ops, opStore, start)
}

// pollOutcome is everything a run leaves behind that the Poll path or
// posting could perturb.
type pollOutcome struct {
	End        sim.Time
	Fired      uint64
	Err        string // the run's error, "" when it completed
	Violations []fault.Violation
	Report     string
	Flight     obs.FlightDump
	Mem        []uint64
}

// newPollMachine builds a metered, invariant-checked machine whose flight
// rings hold the whole run, so the dump compares every recorded event.
func newPollMachine(cfg machine.Config) *machine.Machine {
	cfg.Metrics = true
	cfg.Invariants = true
	m := machine.New(cfg)
	for _, f := range m.Flights {
		f.Resize(1 << 19)
	}
	return m
}

// finish runs m and collects its outcome; memory is read word by word over
// [base, end). A run that fails records its error, which callers check.
func finish(t *testing.T, m *machine.Machine, name string, base, end memory.Addr) pollOutcome {
	t.Helper()
	at, err := m.Run(deadline)
	rep, jerr := json.Marshal(m.MetricsReport("poll", name, ""))
	if jerr != nil {
		t.Fatal(jerr)
	}
	out := pollOutcome{End: at, Fired: m.Engine.Fired(), Violations: m.Checker.Violations(),
		Report: string(rep), Flight: m.FlightDump()}
	if err != nil {
		out.Err = err.Error()
	}
	if out.Flight.Total != uint64(len(out.Flight.Events)) {
		t.Fatalf("%s: flight ring wrapped (%d of %d events)", name, len(out.Flight.Events), out.Flight.Total)
	}
	for a := base; a < end; a += 8 {
		out.Mem = append(out.Mem, m.Store.Load(a))
	}
	return out
}

// sameOutcome compares a production run with a reference run of kind ref.
func sameOutcome(t *testing.T, name string, ref envKind, got, want pollOutcome) {
	t.Helper()
	if got.End != want.End || got.Fired != want.Fired {
		t.Errorf("%s: end %d, %d fired; %s reference %d, %d fired", name, got.End, got.Fired, ref, want.End, want.Fired)
	}
	if got.Err != want.Err {
		t.Errorf("%s: run error %q; %s reference %q", name, got.Err, ref, want.Err)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("%s: violations %v; %s reference %v", name, got.Violations, ref, want.Violations)
	}
	if got.Report != want.Report {
		t.Errorf("%s: metrics report differs from the %s reference's", name, ref)
	}
	if !reflect.DeepEqual(got.Flight, want.Flight) {
		t.Errorf("%s: flight dump differs from the %s reference's (%d vs %d events)",
			name, ref, len(got.Flight.Events), len(want.Flight.Events))
	}
	if !reflect.DeepEqual(got.Mem, want.Mem) {
		t.Errorf("%s: final memory differs from the %s reference's", name, ref)
	}
}

// syncProgram runs a lock, barrier and condition-variable program on lib:
// each phase a critical section, a barrier, a broadcast that every other
// thread waits for, and a second barrier. Its threads see the machine as
// kind.
func syncProgram(t *testing.T, cfg machine.Config, lib *syncrt.Lib, kind envKind) pollOutcome {
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
		e = kind.wrap(e, nil)
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
	if out.Err != "" {
		t.Fatalf("%s (%s): %s", lib.Desc(), kind, out.Err)
	}
	if got := m.Store.Load(counter); got != uint64(tiles*phases) {
		t.Fatalf("%s (%s): counter = %d, want %d", lib.Desc(), kind, got, tiles*phases)
	}
	return out
}

// TestPollMatchesThreadLoop runs every software lock, barrier and
// condition-variable kind, software-only on the MSA machine and
// hardware-first on MSA-0 (every instruction FAILs into the software
// path), with the machine's Env and with both references: the thread-side
// Poll loop and one handoff per Compute and Store. Cycles, events,
// violations, metrics, flight stream and memory must be identical.
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
							got := syncProgram(t, cfg, lib, production)
							for _, ref := range []envKind{threadLoop, unposted} {
								sameOutcome(t, name, ref, got, syncProgram(t, cfg, lib, ref))
							}
						})
					}
				}
			}
		}
	}
}

// Suspension scenario: thread 0 polls flag until it reaches flagDone while
// thread 1 stores lower values (each store invalidates the poller's copy,
// so the next poll load misses) and finally flagDone. Thread 1 only
// computes and stores, so its whole body is one batch of posted operations.
const flagDone = 100

type suspendRun struct {
	pollOutcome
	parkedAt, returnedAt sim.Time
	value                uint64 // what the Poll returned
	suspends, migrations uint64
}

// suspendScenario runs the scenario with a Suspend of thread victim
// requested at cycle at (none when at is 0); the thread resumes on core 2,
// 300 cycles after it parks. The victim sees the machine as kind, logging
// into ops when ops is non-nil; the other thread sees the machine's Env.
func suspendScenario(t *testing.T, victim int, pause uint64, at sim.Time, kind envKind, ops *[]pollOp) suspendRun {
	const base = 0x100000
	m := newPollMachine(machine.Default(4))
	arena := syncrt.NewArena(base)
	flag := arena.Data(1)
	end := arena.Data(1)
	var r suspendRun
	m.SpawnAll(2, func(tid int, e cpu.Env) {
		if tid == victim {
			e = kind.wrap(e, ops)
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
		th := m.Threads()[victim]
		m.Engine.At(at, func() {
			m.Complex.Suspend(th, func() {
				r.parkedAt = m.Engine.Now()
				m.Engine.After(300, func() { m.Complex.Resume(th, 2) })
			})
		})
	}
	r.pollOutcome = finish(t, m, "suspend", base, end)
	if r.Err != "" {
		t.Fatalf("suspend (%s): %s", kind, r.Err)
	}
	for _, c := range m.Cores {
		r.suspends += c.Stats().Suspends
		r.migrations += c.Stats().Migrations
	}
	return r
}

// suspendMatches lands a Suspend of thread victim strictly inside one of
// its operations and resumes the thread on another core. It calibrates on
// an unsuspended run of the reference ref: the first operation of kind op,
// from the victim's fifth logged one on, that lasts two or more cycles. The
// thread must park at that operation's completion, exactly where the
// reference parks, and the whole run must match the reference's.
func suspendMatches(t *testing.T, victim int, pause uint64, op opKind, ref envKind) {
	var ops []pollOp
	suspendScenario(t, victim, pause, 0, ref, &ops)
	var pick *pollOp
	for i := 4; i < len(ops) && pick == nil; i++ {
		if o := ops[i]; o.kind == op && o.end-o.start >= 2 {
			pick = &ops[i]
		}
	}
	if pick == nil {
		t.Fatalf("no operation of kind %d lasting two or more cycles in %d", op, len(ops))
	}
	at := pick.start + 1
	if op == opCompute {
		at = pick.start + (pick.end-pick.start)/2
	}
	got := suspendScenario(t, victim, pause, at, production, nil)
	want := suspendScenario(t, victim, pause, at, ref, nil)
	if want.parkedAt != pick.end {
		t.Fatalf("%s reference parked at %d, want %d (end of the operation in flight at %d)",
			ref, want.parkedAt, pick.end, at)
	}
	if got.parkedAt != want.parkedAt {
		t.Errorf("parked at %d, %s reference at %d", got.parkedAt, ref, want.parkedAt)
	}
	if got.value != flagDone || got.returnedAt != want.returnedAt {
		t.Errorf("Poll returned %d at %d; %s reference %d at %d", got.value, got.returnedAt, ref, want.value, want.returnedAt)
	}
	if got.suspends != 1 || got.migrations != 1 {
		t.Errorf("%d suspends, %d migrations; want 1 each", got.suspends, got.migrations)
	}
	sameOutcome(t, "suspend", ref, got.pollOutcome, want.pollOutcome)
}

// TestPollSuspendMatchesThreadLoop lands a Suspend of the polling thread
// (a) while one of a Poll's loads is in flight and (b) during one of its
// pauses, and checks it against the thread-side loop.
func TestPollSuspendMatchesThreadLoop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pause uint64
		op    opKind
	}{
		{"load", 50, opLoad},
		{"pause", 50, opCompute},
		{"load-nopause", 0, opLoad},
	} {
		t.Run(tc.name, func(t *testing.T) { suspendMatches(t, 0, tc.pause, tc.op, threadLoop) })
	}
}

// TestPostedSuspendMatchesUnposted lands a Suspend of the storing thread
// during one of its posted Computes and during one of its posted Stores,
// and checks it against one handoff per operation: the batch must park
// between its operations and continue on the new core.
func TestPostedSuspendMatchesUnposted(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   opKind
	}{
		{"compute", opCompute},
		{"store", opStore},
	} {
		t.Run(tc.name, func(t *testing.T) { suspendMatches(t, 1, 50, tc.op, unposted) })
	}
}

// appRun runs app at 16 tiles on cfg and lib, its threads seeing the
// machine as kind, and collects the outcome over the app's arena.
func appRun(t *testing.T, app workload.App, cfg machine.Config, lib *syncrt.Lib, kind envKind) pollOutcome {
	const base = 0x1000000
	m := newPollMachine(cfg)
	arena := syncrt.NewArena(base)
	body := app.Build(arena, cfg.Tiles, lib)
	end := arena.Data(1)
	m.SpawnAll(cfg.Tiles, func(tid int, e cpu.Env) { body(tid, kind.wrap(e, nil)) })
	out := finish(t, m, app.Name, base, end)
	if out.Err != "" {
		t.Fatalf("%s (%s): %s", app.Name, kind, out.Err)
	}
	return out
}

// TestPostedMatchesUnposted runs the golden figures' four apps at 16 tiles
// on the pthread baseline and on MSA/OMU-2, and a transactional program
// under fault injection (its forced aborts draw from the injector that
// delays and jitters messages too), with the machine's Env and with one
// handoff per Compute and Store: everything must be identical.
func TestPostedMatchesUnposted(t *testing.T) {
	type run struct {
		app workload.App
		cfg machine.Config
		lib *syncrt.Lib
	}
	pthread := machine.Default(16)
	pthread.Name = "pthread"
	pthread.CPU.Mode = cpu.ModeAlwaysFail
	var runs []run
	for _, name := range []string{"radiosity", "ocean-nc", "fluidanimate", "streamcluster"} {
		app, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no app %q", name)
		}
		runs = append(runs, run{app, pthread, syncrt.PthreadLib()}, run{app, machine.MSAOMU(16, 2), syncrt.HWLib()})
	}
	chaotic := machine.MSAOMU(16, 2)
	chaotic.Fault = fault.DefaultPlan(7)
	runs = append(runs, run{workload.TMSweepApp(500), chaotic, syncrt.TMLib()})
	for _, r := range runs {
		name := fmt.Sprintf("%s/%s/%s", r.app.Name, r.cfg.Name, r.lib.Desc())
		t.Run(name, func(t *testing.T) {
			got := appRun(t, r.app, r.cfg, r.lib, production)
			sameOutcome(t, name, unposted, got, appRun(t, r.app, r.cfg, r.lib, unposted))
		})
	}
}

// TestPostedComputeLoopBatches runs a thread that only computes: it must
// hand control to the kernel once per 64 operations (plus once for the
// remainder when its body returns), where the reference hands it over once
// per operation, and both must end at the same cycle.
func TestPostedComputeLoopBatches(t *testing.T) {
	const n = 64*10 + 1
	for _, tc := range []struct {
		kind envKind
		want uint64
	}{
		{production, 11},
		{unposted, n},
	} {
		m := newPollMachine(machine.Default(1))
		m.SpawnAll(1, func(tid int, e cpu.Env) {
			e = tc.kind.wrap(e, nil)
			for i := 0; i < n; i++ {
				e.Compute(10)
			}
		})
		out := finish(t, m, "compute-loop", 0, 0)
		if out.Err != "" || out.End != 10*n {
			t.Errorf("%s: end %d, error %q; want end %d", tc.kind, out.End, out.Err, 10*n)
		}
		if got := m.Threads()[0].Handoffs(); got != tc.want {
			t.Errorf("%s: %d handoffs, want %d", tc.kind, got, tc.want)
		}
	}
}

// TestPostedPanicIssuesBatch panics in a thread body with a Compute and a
// Store posted: they must still be issued, so the store reaches memory and
// the run fails at the reference's cycle.
func TestPostedPanicIssuesBatch(t *testing.T) {
	const base = 0x100000
	run := func(kind envKind) pollOutcome {
		m := newPollMachine(machine.Default(4))
		arena := syncrt.NewArena(base)
		x := arena.Data(1)
		end := arena.Data(1)
		m.SpawnAll(2, func(tid int, e cpu.Env) {
			e = kind.wrap(e, nil)
			e.Compute(uint64(100 + 40*tid))
			if tid == 1 {
				e.Store(x, e.Load(x)+7)
				e.Compute(50)
				panic("boom")
			}
			e.Store(x, 1)
		})
		return finish(t, m, "panic", base, end)
	}
	got, want := run(production), run(unposted)
	if !strings.Contains(want.Err, "thread 1 panicked: boom") || want.Mem[0] != 8 {
		t.Fatalf("reference: error %q, x = %d; want thread 1's panic and x = 8", want.Err, want.Mem[0])
	}
	sameOutcome(t, "panic", unposted, got, want)
}

// TestPostedHandlesFlush fetches Check, Faults and Flight right after
// posted stores and uses each where the cycle matters: a violation is
// stamped with it, a fault draw interleaves with the draws for the stores'
// messages, and a flight record lands among their coherence events. Each
// fetch must let the posted operations commit first, as one handoff per
// operation does.
func TestPostedHandlesFlush(t *testing.T) {
	const base, tiles = 0x100000, 4
	run := func(kind envKind) pollOutcome {
		cfg := machine.MSAOMU(tiles, 2)
		cfg.Fault = fault.DefaultPlan(7)
		m := newPollMachine(cfg)
		arena := syncrt.NewArena(base)
		free := arena.Mutex()
		words := arena.DataArray(3 * tiles)
		end := arena.Data(1)
		m.SpawnAll(tiles, func(tid int, e cpu.Env) {
			e = kind.wrap(e, nil)
			w := words[3*tid:]
			e.Compute(uint64(10 + 7*tid))
			e.Store(w[0], 1)
			e.Check().LockReleased(free.Addr, fault.WorldSW) // released while free
			e.Store(w[1], 1)
			e.Faults().ForceTMAbort()
			e.Store(w[2], 1)
			e.Flight().Record(obs.FlightEvent{Kind: obs.FTxBegin, Tile: int16(tid), Core: int16(tid)})
		})
		return finish(t, m, "handles", base, end)
	}
	got, want := run(production), run(unposted)
	if len(want.Violations) != tiles {
		t.Fatalf("reference: %d violations, want one per thread", len(want.Violations))
	}
	sameOutcome(t, "handles", unposted, got, want)
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
