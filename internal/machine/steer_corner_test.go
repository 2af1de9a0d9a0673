package machine_test

// OMU steer corner cases (satellite of the fault-injection issue): aliasing
// false steers, the steer-during-release race under delayed acks, and
// re-acquire after a forced un-steer. Each test pins a fixed seed / layout so
// a regression reproduces exactly.

import (
	"testing"

	"misar/internal/core"
	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/machine"
	"misar/internal/metrics"
	"misar/internal/syncrt"
)

// TestAliasingFalseSteer constructs two distinct locks homed on the same tile
// whose addresses hash to the same untagged OMU counter. While one is held in
// software (after a genuine capacity steer), an acquire of the other must be
// steered too — a false steer, costing performance but never correctness —
// and the slice must classify it as such in its metrics.
func TestAliasingFalseSteer(t *testing.T) {
	const tiles = 4
	cfg := machine.MSAOMU(tiles, 1)
	cfg = machine.WithoutHWSync(cfg)
	cfg.Metrics = true
	cfg.Invariants = true
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()

	const home = 0
	n := cfg.MSA.OMUCounters
	blocker := syncrt.Mutex{Addr: lineWithHome(arena, tiles, home)}
	lockA := syncrt.Mutex{Addr: lineWithHome(arena, tiles, home)}
	var lockB syncrt.Mutex
	for {
		p := lineWithHome(arena, tiles, home)
		if core.OMUIndex(p, n) == core.OMUIndex(lockA.Addr, n) {
			lockB = syncrt.Mutex{Addr: p}
			break
		}
	}

	// t0 occupies tile 0's only MSA entry; t1's Lock(A) capacity-steers to
	// software and holds A across t2's Lock(B); by then the entry is free, so
	// B's steer can only come from the aliased counter.
	bodies := []func(rt *syncrt.T, e cpu.Env){
		func(rt *syncrt.T, e cpu.Env) {
			rt.Lock(blocker)
			e.Compute(4000)
			rt.Unlock(blocker)
		},
		func(rt *syncrt.T, e cpu.Env) {
			e.Compute(1000)
			rt.Lock(lockA)
			e.Compute(8000)
			rt.Unlock(lockA)
		},
		func(rt *syncrt.T, e cpu.Env) {
			e.Compute(6000)
			rt.Lock(lockB)
			e.Compute(100)
			rt.Unlock(lockB)
		},
	}
	for i := range bodies {
		i := i
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			bodies[i](lib.Bind(e, arena.QNode()), e)
		})
		m.Complex.Start(th, i, 0)
	}
	if _, err := m.Run(300_000); err != nil {
		t.Fatalf("scenario failed: %v", err)
	}
	if v := m.Checker.Violations(); len(v) != 0 {
		t.Fatalf("aliasing must never cost correctness; violations: %v", v)
	}
	falseSteers := m.Metrics.Counter(metrics.TileName("msa", home, "omu_false_steers")).Value()
	if falseSteers == 0 {
		t.Error("Lock(B) was not classified as a false (aliasing) steer")
	}
	if st := m.MSAStats(); st.OMUSteers == 0 || st.CapacitySteers == 0 {
		t.Errorf("expected both a capacity steer (A) and an OMU steer (B): %+v", st)
	}
}

// TestSteerDuringReleaseRace hammers one lock from three cores while the
// injector delays slice acknowledgments and jitters the NoC (fixed seed). The
// dangerous window is an unlock FAIL in flight while the slice concurrently
// grants or steers the next acquire; the mutual-exclusion invariant and the
// exact final count prove the window stays closed.
func TestSteerDuringReleaseRace(t *testing.T) {
	const tiles = 6
	cfg := machine.MSAOMU(tiles, 1)
	cfg.Invariants = true
	cfg.Fault = fault.Plan{
		Seed:      0xC0FFEE,
		SteerRate: 20000,              // ~30% of allocatable acquires steered anyway
		AckRate:   40000, AckMax: 400, // ~61% of responses held up to 400 cycles
		NoCRate: 30000, NoCMax: 100,
	}
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()

	lock := arena.Mutex()
	counter := arena.Data(1)
	const threads, iters = 3, 20
	for i := 0; i < threads; i++ {
		i := i
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, arena.QNode())
			for k := 0; k < iters; k++ {
				rt.Lock(lock)
				e.Store(counter, e.Load(counter)+1)
				e.Compute(uint64(5 + (i+k)%11))
				rt.Unlock(lock)
				e.Compute(uint64(20 + (i*7+k)%31))
			}
		})
		m.Complex.Start(th, 2*i, 0)
	}
	if _, err := m.Run(chaosBudget); err != nil {
		t.Fatalf("race scenario failed: %v", err)
	}
	if v := m.Checker.Violations(); len(v) != 0 {
		t.Fatalf("violations under delayed-ack release: %v", v)
	}
	if got := m.Store.Load(counter); got != threads*iters {
		t.Fatalf("counter = %d, want %d (lost update)", got, threads*iters)
	}
	c := m.Injector.Counts()
	if c.AckDelays == 0 || c.Steers == 0 {
		t.Fatalf("fault pressure did not materialize: %s", c.String())
	}
}

// TestReacquireAfterUnsteer keeps the HWSync optimization on and forces
// spurious standby-entry evictions (un-steers): a core's silent re-acquire
// privilege is revoked between acquires, so LOCK_SILENT must fall back to the
// full protocol without ever double-granting.
func TestReacquireAfterUnsteer(t *testing.T) {
	const tiles = 4
	cfg := machine.MSAOMU(tiles, 2)
	cfg.Invariants = true
	cfg.Fault = fault.Plan{Seed: 7, EvictRate: 45000} // ~69% of requests trigger a sweep
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x100000)
	lib := syncrt.HWLib()

	lock := arena.Mutex()
	counter := arena.Data(1)
	const threads, iters = 2, 25
	for i := 0; i < threads; i++ {
		i := i
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, arena.QNode())
			for k := 0; k < iters; k++ {
				rt.Lock(lock)
				e.Store(counter, e.Load(counter)+1)
				e.Compute(uint64(10 + (i*3+k)%17))
				rt.Unlock(lock)
				e.Compute(uint64(200 + (i*13+k*7)%97)) // long enough for standby
			}
		})
		m.Complex.Start(th, 2*i, 0)
	}
	if _, err := m.Run(chaosBudget); err != nil {
		t.Fatalf("un-steer scenario failed: %v", err)
	}
	if v := m.Checker.Violations(); len(v) != 0 {
		t.Fatalf("violations under forced eviction: %v", v)
	}
	if got := m.Store.Load(counter); got != threads*iters {
		t.Fatalf("counter = %d, want %d (lost update)", got, threads*iters)
	}
	if c := m.Injector.Counts(); c.Evicts == 0 {
		t.Fatalf("no forced evictions fired: %s", c.String())
	}
}

// chaosBudget bounds the corner-case runs far below the tier-1 deadline so a
// wedge fails fast with a watchdog diagnosis.
const chaosBudget = 2_000_000
