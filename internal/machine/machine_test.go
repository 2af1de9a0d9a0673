package machine

import (
	"fmt"
	"testing"

	"misar/internal/cpu"
	"misar/internal/memory"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

const deadline = sim.Time(200_000_000)

// configsUnderTest pairs every machine variant with its library, as the
// paper's evaluation does.
func configsUnderTest(tiles int) []struct {
	cfg Config
	lib *syncrt.Lib
} {
	return []struct {
		cfg Config
		lib *syncrt.Lib
	}{
		{func() Config { c := Default(tiles); c.Name = "pthread"; c.CPU.Mode = cpu.ModeAlwaysFail; return c }(), syncrt.PthreadLib()},
		{MSA0(tiles), syncrt.HWLib()},
		{MSAOMU(tiles, 1), syncrt.HWLib()},
		{MSAOMU(tiles, 2), syncrt.HWLib()},
		{WithoutHWSync(MSAOMU(tiles, 2)), syncrt.HWLib()},
		{MSAInf(tiles), syncrt.HWLib()},
		{Ideal(tiles), syncrt.HWLib()},
		{func() Config { c := Default(tiles); c.Name = "mcs-tour"; c.CPU.Mode = cpu.ModeAlwaysFail; return c }(), syncrt.MCSTourLib()},
		{LockOnly(MSAOMU(tiles, 2)), syncrt.HWLib()},
		{BarrierOnly(MSAOMU(tiles, 2)), syncrt.HWLib()},
		{WithoutOMU(MSAOMU(tiles, 2)), syncrt.HWLib()},
	}
}

// TestMutualExclusionAllConfigs hammers one lock from every core and checks
// that a non-atomic read-modify-write sequence under the lock never loses an
// update — the canonical mutual-exclusion test.
func TestMutualExclusionAllConfigs(t *testing.T) {
	const tiles, iters = 8, 20
	for _, tc := range configsUnderTest(tiles) {
		tc := tc
		t.Run(tc.cfg.Name, func(t *testing.T) {
			m := New(tc.cfg)
			arena := syncrt.NewArena(0x100000)
			lock := arena.Mutex()
			counter := arena.Data(1)
			qnodes := make([]memory.Addr, tiles)
			for i := range qnodes {
				qnodes[i] = arena.QNode()
			}
			m.SpawnAll(tiles, func(tid int, e cpu.Env) {
				rt := tc.lib.Bind(e, qnodes[tid])
				for i := 0; i < iters; i++ {
					rt.Lock(lock)
					v := e.Load(counter) // non-atomic increment under lock
					e.Compute(5)
					e.Store(counter, v+1)
					rt.Unlock(lock)
					e.Compute(20)
				}
			})
			if _, err := m.Run(deadline); err != nil {
				t.Fatal(err)
			}
			if got := m.Store.Load(counter); got != tiles*iters {
				t.Fatalf("counter = %d, want %d (mutual exclusion violated)", got, tiles*iters)
			}
		})
	}
}

// TestBarrierPhasesAllConfigs runs a multi-phase computation where phase k
// writes must all be visible before phase k+1 reads.
func TestBarrierPhasesAllConfigs(t *testing.T) {
	const tiles, phases = 8, 6
	for _, tc := range configsUnderTest(tiles) {
		tc := tc
		t.Run(tc.cfg.Name, func(t *testing.T) {
			m := New(tc.cfg)
			arena := syncrt.NewArena(0x100000)
			bar := arena.Barrier(tiles)
			cells := arena.Data(tiles)
			qnodes := make([]memory.Addr, tiles)
			for i := range qnodes {
				qnodes[i] = arena.QNode()
			}
			bad := make([]bool, tiles)
			m.SpawnAll(tiles, func(tid int, e cpu.Env) {
				rt := tc.lib.Bind(e, qnodes[tid])
				my := cells + memory.Addr(tid*memory.LineSize)
				for p := 1; p <= phases; p++ {
					e.Store(my, uint64(p))
					e.Compute(uint64(10 + tid*3))
					rt.Wait(bar)
					// Everyone must observe every cell at phase p.
					peer := cells + memory.Addr(((tid+1)%tiles)*memory.LineSize)
					if e.Load(peer) < uint64(p) {
						bad[tid] = true
					}
					rt.Wait(bar)
				}
			})
			if _, err := m.Run(deadline); err != nil {
				t.Fatal(err)
			}
			for tid, b := range bad {
				if b {
					t.Fatalf("thread %d crossed a barrier early", tid)
				}
			}
		})
	}
}

// TestCondVarProducerConsumer checks signal/wait semantics: a bounded
// buffer with one producer and many consumers.
func TestCondVarProducerConsumer(t *testing.T) {
	const tiles = 8
	const items = 24
	for _, tc := range configsUnderTest(tiles) {
		tc := tc
		t.Run(tc.cfg.Name, func(t *testing.T) {
			m := New(tc.cfg)
			arena := syncrt.NewArena(0x100000)
			lock := arena.Mutex()
			notEmpty := arena.Cond()
			queue := arena.Data(1)    // item count
			consumed := arena.Data(1) // total consumed
			qnodes := make([]memory.Addr, tiles)
			for i := range qnodes {
				qnodes[i] = arena.QNode()
			}
			m.SpawnAll(tiles, func(tid int, e cpu.Env) {
				rt := tc.lib.Bind(e, qnodes[tid])
				if tid == 0 {
					// Producer.
					for i := 0; i < items; i++ {
						rt.Lock(lock)
						e.Store(queue, e.Load(queue)+1)
						rt.CondSignal(notEmpty)
						rt.Unlock(lock)
						e.Compute(50)
					}
					return
				}
				// Consumers: each takes items until the global total is met.
				for {
					rt.Lock(lock)
					for e.Load(queue) == 0 && e.Load(consumed) < items {
						rt.CondWait(notEmpty, lock)
					}
					if e.Load(consumed) >= items {
						// Wake any remaining sleeper so everyone can exit.
						rt.CondSignal(notEmpty)
						rt.Unlock(lock)
						return
					}
					e.Store(queue, e.Load(queue)-1)
					e.Store(consumed, e.Load(consumed)+1)
					if e.Load(consumed) >= items {
						rt.CondBroadcast(notEmpty)
					}
					rt.Unlock(lock)
					e.Compute(30)
				}
			})
			if _, err := m.Run(deadline); err != nil {
				t.Fatal(err)
			}
			if got := m.Store.Load(consumed); got != items {
				t.Fatalf("consumed = %d, want %d", got, items)
			}
			if got := m.Store.Load(queue); got != 0 {
				t.Fatalf("queue = %d, want 0", got)
			}
		})
	}
}

// TestManyLocksOverflow uses far more locks than MSA entries; the OMU must
// keep everything correct while entries churn.
func TestManyLocksOverflow(t *testing.T) {
	const tiles, locks, iters = 8, 64, 6
	cfg := MSAOMU(tiles, 2)
	m := New(cfg)
	arena := syncrt.NewArena(0x100000)
	ms := make([]syncrt.Mutex, locks)
	for i := range ms {
		ms[i] = arena.Mutex()
	}
	counters := arena.Data(locks)
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	lib := syncrt.HWLib()
	m.SpawnAll(tiles, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qnodes[tid])
		for i := 0; i < iters; i++ {
			for j := 0; j < locks; j++ {
				k := (j*7 + tid*13) % locks
				rt.Lock(ms[k])
				addr := counters + memory.Addr(k*memory.LineSize)
				e.Store(addr, e.Load(addr)+1)
				rt.Unlock(ms[k])
			}
		}
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < locks; k++ {
		addr := counters + memory.Addr(k*memory.LineSize)
		if got := m.Store.Load(addr); got != tiles*iters {
			t.Fatalf("lock %d counter = %d, want %d", k, got, tiles*iters)
		}
	}
	// With 8 slices × 2 entries and 64 locks, software fallback must have
	// happened — and hardware must still have served a decent share.
	s := m.MSAStats()
	if s.SWOps() == 0 {
		t.Error("expected some software fallback with 64 locks on MSA-2")
	}
	if s.HWOps() == 0 {
		t.Error("expected some hardware coverage")
	}
	if s.Allocs == 0 || s.Deallocs == 0 {
		t.Error("expected entry churn")
	}
}

// TestCoverageImprovesWithOMU reproduces Fig. 7's direction: with many
// barriers+locks cycling, the OMU-managed MSA covers more operations than
// the never-deallocate baseline.
func TestCoverageImprovesWithOMU(t *testing.T) {
	run := func(without bool) float64 {
		cfg := MSAOMU(8, 2)
		if without {
			cfg = WithoutOMU(cfg)
		}
		m := New(cfg)
		arena := syncrt.NewArena(0x100000)
		const locks = 48
		ms := make([]syncrt.Mutex, locks)
		for i := range ms {
			ms[i] = arena.Mutex()
		}
		qnodes := make([]memory.Addr, 8)
		for i := range qnodes {
			qnodes[i] = arena.QNode()
		}
		lib := syncrt.HWLib()
		m.SpawnAll(8, func(tid int, e cpu.Env) {
			rt := lib.Bind(e, qnodes[tid])
			// Phased: use one lock heavily, then move on — the OMU lets
			// entries follow the active set.
			for phase := 0; phase < locks; phase++ {
				k := (phase + tid) % locks
				for i := 0; i < 4; i++ {
					rt.Lock(ms[k])
					e.Compute(10)
					rt.Unlock(ms[k])
				}
			}
		})
		if _, err := m.Run(deadline); err != nil {
			t.Fatal(err)
		}
		return m.Coverage()
	}
	with := run(false)
	without := run(true)
	if with <= without {
		t.Fatalf("coverage with OMU (%.2f) should beat without (%.2f)", with, without)
	}
}

// TestSilentReacquire verifies the §5 fast path fires when one thread
// repeatedly locks its own lock.
func TestSilentReacquire(t *testing.T) {
	m := New(MSAOMU(4, 2))
	arena := syncrt.NewArena(0x100000)
	lock := arena.Mutex()
	lib := syncrt.HWLib()
	m.SpawnAll(1, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, arena.QNode())
		for i := 0; i < 10; i++ {
			rt.Lock(lock)
			e.Compute(150)
			rt.Unlock(lock)
			e.Compute(150)
		}
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	st := m.Cores[0].Stats()
	if st.SilentLocks < 7 {
		t.Fatalf("silent locks = %d, want >= 7 of 10 (grant fill takes ~1 round trip)", st.SilentLocks)
	}
}

// TestSuspendResumeMigration exercises the SUSPEND/ABORT machinery: a
// waiter is suspended while queued, resumed on another core, and the lock
// still ends up correctly handed around.
func TestSuspendResumeMigration(t *testing.T) {
	m := New(MSAOMU(4, 2))
	arena := syncrt.NewArena(0x100000)
	lock := arena.Mutex()
	counter := arena.Data(1)
	lib := syncrt.HWLib()
	qn := []memory.Addr{arena.QNode(), arena.QNode()}

	t0 := m.Complex.Spawn(0, func(e cpu.Env) {
		rt := lib.Bind(e, qn[0])
		rt.Lock(lock)
		e.Compute(3000) // hold long enough for thread 1 to queue up
		e.Store(counter, e.Load(counter)+1)
		rt.Unlock(lock)
	})
	t1 := m.Complex.Spawn(1, func(e cpu.Env) {
		rt := lib.Bind(e, qn[1])
		e.Compute(200) // let thread 0 win
		rt.Lock(lock)
		e.Store(counter, e.Load(counter)+1)
		rt.Unlock(lock)
	})
	m.Complex.Start(t0, 0, 0)
	m.Complex.Start(t1, 1, 0)
	// While thread 1 waits in the HWQueue, suspend it and migrate to core 3.
	m.Engine.At(800, func() {
		m.Complex.Suspend(t1, func() {
			m.Engine.After(5000, func() { m.Complex.Resume(t1, 3) })
		})
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Load(counter); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	if m.Cores[3].Stats().Migrations != 1 {
		t.Fatal("migration not recorded")
	}
}

// TestBarrierSuspensionFallsBackToSoftware suspends a thread waiting at a
// hardware barrier; everyone must fall back to software and still complete.
func TestBarrierSuspensionFallsBackToSoftware(t *testing.T) {
	const tiles = 4
	m := New(MSAOMU(tiles, 2))
	arena := syncrt.NewArena(0x100000)
	bar := arena.Barrier(tiles)
	lib := syncrt.HWLib()
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	done := arena.Data(1)
	var threads []*cpu.Thread
	for i := 0; i < tiles; i++ {
		i := i
		th := m.Complex.Spawn(i, func(e cpu.Env) {
			rt := lib.Bind(e, qnodes[i])
			if i == tiles-1 {
				e.Compute(50_000) // last arrival comes very late
			}
			rt.Wait(bar)
			e.FetchAdd(done, 1)
		})
		threads = append(threads, th)
		m.Complex.Start(th, i, 0)
	}
	// Suspend thread 0 while it waits at the barrier, resume shortly after.
	m.Engine.At(2000, func() {
		m.Complex.Suspend(threads[0], func() {
			m.Engine.After(3000, func() { m.Complex.Resume(threads[0], 0) })
		})
	})
	if _, err := m.Run(deadline); err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Load(done); got != tiles {
		t.Fatalf("done = %d, want %d", got, tiles)
	}
	if m.MSAStats().Aborts == 0 {
		t.Fatal("expected barrier abort")
	}
}

// TestDeterminism: identical runs produce identical cycle counts and stats.
func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		m := New(MSAOMU(8, 2))
		arena := syncrt.NewArena(0x100000)
		lock := arena.Mutex()
		bar := arena.Barrier(8)
		counter := arena.Data(1)
		qnodes := make([]memory.Addr, 8)
		for i := range qnodes {
			qnodes[i] = arena.QNode()
		}
		lib := syncrt.HWLib()
		m.SpawnAll(8, func(tid int, e cpu.Env) {
			rt := lib.Bind(e, qnodes[tid])
			for i := 0; i < 10; i++ {
				rt.Lock(lock)
				e.Store(counter, e.Load(counter)+1)
				rt.Unlock(lock)
				rt.Wait(bar)
			}
		})
		end, err := m.Run(deadline)
		if err != nil {
			t.Fatal(err)
		}
		st := m.MSAStats()
		return end, st.HWOps()
	}
	e1, h1 := run()
	e2, h2 := run()
	if e1 != e2 || h1 != h2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", e1, h1, e2, h2)
	}
}

// TestSpeedupSanity: on a barrier-heavy workload at 16 cores, hardware
// synchronization must beat the software baseline, and MSA-0 must be close
// to it.
func TestSpeedupSanity(t *testing.T) {
	run := func(cfg Config, lib *syncrt.Lib) sim.Time {
		const tiles = 16
		m := New(cfg)
		arena := syncrt.NewArena(0x100000)
		bar := arena.Barrier(tiles)
		qnodes := make([]memory.Addr, tiles)
		for i := range qnodes {
			qnodes[i] = arena.QNode()
		}
		m.SpawnAll(tiles, func(tid int, e cpu.Env) {
			rt := lib.Bind(e, qnodes[tid])
			for i := 0; i < 30; i++ {
				e.Compute(uint64(100 + (tid*37+i*11)%50))
				rt.Wait(bar)
			}
		})
		end, err := m.Run(deadline)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	base := run(func() Config { c := Default(16); c.CPU.Mode = cpu.ModeAlwaysFail; return c }(), syncrt.PthreadLib())
	hw := run(MSAOMU(16, 2), syncrt.HWLib())
	msa0 := run(MSA0(16), syncrt.HWLib())
	ideal := run(Ideal(16), syncrt.HWLib())
	t.Logf("pthread=%d msa0=%d hw=%d ideal=%d", base, msa0, hw, ideal)
	if hw >= base {
		t.Errorf("MSA/OMU (%d cycles) should beat pthread (%d)", hw, base)
	}
	if ideal > hw {
		t.Errorf("Ideal (%d) should not be slower than MSA/OMU (%d)", ideal, hw)
	}
	// MSA-0 overhead over the baseline should be small (paper: within 1%,
	// we allow 5% for model noise).
	if float64(msa0) > float64(base)*1.05 {
		t.Errorf("MSA-0 (%d) adds too much overhead over pthread (%d)", msa0, base)
	}
}

func ExampleNew() {
	m := New(MSAOMU(4, 2))
	arena := syncrt.NewArena(0x100000)
	lock := arena.Mutex()
	lib := syncrt.HWLib()
	m.SpawnAll(4, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, 0x7F0000+memory.Addr(tid*64))
		rt.Lock(lock)
		e.Store(0x200000, e.Load(0x200000)+1)
		rt.Unlock(lock)
	})
	if _, err := m.Run(1_000_000); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("counter:", m.Store.Load(0x200000))
	// Output: counter: 4
}
