package workload

import (
	"fmt"
	"sort"

	"misar/internal/cpu"
	"misar/internal/machine"
	"misar/internal/metrics"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

// Fig. 5 raw synchronization latency microbenchmarks. Each returns the mean
// cycle count of the measured interval, mirroring the paper's definitions:
//
//	LockAcquire    — no contention: time inside lock() (disjoint per-thread
//	                 locks).
//	LockHandoff    — high contention: cycle unlock() is entered to cycle the
//	                 released lock() exits (all threads on one lock).
//	BarrierHandoff — cycle the last-arriving thread enters barrier() to the
//	                 cycle the last thread exits.
//	CondSignal     — entering cond_signal() to exit of the released
//	                 cond_wait().
//	CondBroadcast  — entering cond_broadcast() to exit of the last released
//	                 cond_wait().
type MicroResult struct {
	Name    string
	Cycles  float64 // mean measured latency
	Samples int
	// Report carries the machine-wide metrics snapshot when cfg.Metrics is
	// set; nil otherwise.
	Report *metrics.Report
}

// event records a timestamped measurement point. The simulation is single
// threaded, so Go-side slices can be shared safely across thread bodies.
type event struct {
	at   sim.Time
	kind int
	tid  int
}

const (
	evUnlockEnter = iota
	evLockExit
	evBarrierEnter
	evBarrierExit
	evSignalEnter
	evWaitExit
)

// MicroLockAcquire measures the uncontended acquire path.
func MicroLockAcquire(cfg machine.Config, lib *syncrt.Lib) MicroResult {
	const iters = 30
	m := machine.New(cfg)
	a := syncrt.NewArena(0x1000000)
	threads := cfg.Tiles
	locks := make([]syncrt.Mutex, threads)
	for i := range locks {
		locks[i] = a.Mutex()
	}
	qn := bindQNodes(a, threads)
	total := make([]sim.Time, threads)
	n := make([]int, threads)
	m.SpawnAll(threads, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qn[tid])
		for i := 0; i < iters; i++ {
			t0 := e.Now()
			rt.Lock(locks[tid])
			if i >= 2 { // skip cold-miss warmup
				total[tid] += e.Now() - t0
				n[tid]++
			}
			e.Compute(20)
			rt.Unlock(locks[tid])
			e.Compute(50)
		}
	})
	mustRun(m, "LockAcquire")
	rep := m.MetricsReport("micro", "LockAcquire", lib.Desc())
	var sum sim.Time
	var cnt int
	for i := range total {
		sum += total[i]
		cnt += n[i]
	}
	return MicroResult{Name: "LockAcquire", Cycles: float64(sum) / float64(cnt), Samples: cnt, Report: rep}
}

// MicroLockHandoff measures contended lock handoff.
func MicroLockHandoff(cfg machine.Config, lib *syncrt.Lib) MicroResult {
	const iters = 12
	m := machine.New(cfg)
	a := syncrt.NewArena(0x1000000)
	threads := cfg.Tiles
	lock := a.Mutex()
	qn := bindQNodes(a, threads)
	var events []event
	m.SpawnAll(threads, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qn[tid])
		for i := 0; i < iters; i++ {
			rt.Lock(lock)
			events = append(events, event{at: e.Now(), kind: evLockExit, tid: tid})
			e.Compute(30) // critical section
			events = append(events, event{at: e.Now(), kind: evUnlockEnter, tid: tid})
			rt.Unlock(lock)
			e.Compute(10)
		}
	})
	mustRun(m, "LockHandoff")
	rep := m.MetricsReport("micro", "LockHandoff", lib.Desc())
	// Handoff = time from an unlock-enter to the next lock-exit (by a
	// different thread). Sort by time; pair consecutive events.
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	var sum sim.Time
	cnt := 0
	var pendingRelease *event
	for i := range events {
		ev := events[i]
		switch ev.kind {
		case evUnlockEnter:
			pendingRelease = &events[i]
		case evLockExit:
			if pendingRelease != nil && ev.tid != pendingRelease.tid {
				sum += ev.at - pendingRelease.at
				cnt++
			}
			pendingRelease = nil
		}
	}
	if cnt == 0 {
		return MicroResult{Name: "LockHandoff", Cycles: 0, Report: rep}
	}
	return MicroResult{Name: "LockHandoff", Cycles: float64(sum) / float64(cnt), Samples: cnt, Report: rep}
}

// MicroBarrierHandoff measures barrier release latency.
func MicroBarrierHandoff(cfg machine.Config, lib *syncrt.Lib) MicroResult {
	const episodes = 10
	m := machine.New(cfg)
	a := syncrt.NewArena(0x1000000)
	threads := cfg.Tiles
	bar := a.Barrier(threads)
	qn := bindQNodes(a, threads)
	enters := make([][]sim.Time, episodes)
	exits := make([][]sim.Time, episodes)
	for i := range enters {
		enters[i] = make([]sim.Time, threads)
		exits[i] = make([]sim.Time, threads)
	}
	m.SpawnAll(threads, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qn[tid])
		for ep := 0; ep < episodes; ep++ {
			// Stagger arrivals so the last arrival is well defined.
			e.Compute(100 + uint64(tid)*37 + jitter(tid, ep, 50))
			enters[ep][tid] = e.Now()
			rt.Wait(bar)
			exits[ep][tid] = e.Now()
		}
	})
	mustRun(m, "BarrierHandoff")
	rep := m.MetricsReport("micro", "BarrierHandoff", lib.Desc())
	var sum sim.Time
	cnt := 0
	for ep := 2; ep < episodes; ep++ { // skip warmup episodes
		lastEnter, lastExit := sim.Time(0), sim.Time(0)
		for t := 0; t < threads; t++ {
			if enters[ep][t] > lastEnter {
				lastEnter = enters[ep][t]
			}
			if exits[ep][t] > lastExit {
				lastExit = exits[ep][t]
			}
		}
		sum += lastExit - lastEnter
		cnt++
	}
	return MicroResult{Name: "BarrierHandoff", Cycles: float64(sum) / float64(cnt), Samples: cnt, Report: rep}
}

// MicroCondSignal measures signal-to-wakeup latency with a single waiter.
func MicroCondSignal(cfg machine.Config, lib *syncrt.Lib) MicroResult {
	return microCond(cfg, lib, false)
}

// MicroCondBroadcast measures broadcast-to-last-wakeup latency with all
// other threads waiting.
func MicroCondBroadcast(cfg machine.Config, lib *syncrt.Lib) MicroResult {
	return microCond(cfg, lib, true)
}

func microCond(cfg machine.Config, lib *syncrt.Lib, bcast bool) MicroResult {
	const rounds = 8
	name := "CondSignal"
	if bcast {
		name = "CondBroadcast"
	}
	m := machine.New(cfg)
	a := syncrt.NewArena(0x1000000)
	threads := cfg.Tiles
	lock := a.Mutex()
	cv := a.Cond()
	seq := a.Data(1)   // round the waiters may consume
	woken := a.Data(1) // wakeups consumed this round
	qn := bindQNodes(a, threads)
	waiters := 1
	if bcast {
		waiters = threads - 1
	}
	sigAt := make([]sim.Time, rounds)
	lastWake := make([]sim.Time, rounds)
	m.SpawnAll(threads, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qn[tid])
		if tid == 0 {
			// Signaler: let waiters queue up, then wake.
			for r := 0; r < rounds; r++ {
				e.Compute(4000) // generous time for waiters to block
				rt.Lock(lock)
				e.Store(seq, uint64(r+1))
				sigAt[r] = e.Now()
				if bcast {
					rt.CondBroadcast(cv)
				} else {
					rt.CondSignal(cv)
				}
				rt.Unlock(lock)
				// Wait until all wakeups for this round are consumed.
				e.Poll(woken, cpu.UntilGe, uint64((r+1)*waiters), 200)
			}
			return
		}
		if tid > waiters {
			return // spectators in the signal (non-bcast) case
		}
		for r := 0; r < rounds; r++ {
			rt.Lock(lock)
			for e.Load(seq) < uint64(r+1) {
				rt.CondWait(cv, lock)
			}
			w := e.Now()
			if w > lastWake[r] {
				lastWake[r] = w
			}
			e.Store(woken, e.Load(woken)+1)
			rt.Unlock(lock)
		}
	})
	mustRun(m, name)
	rep := m.MetricsReport("micro", name, lib.Desc())
	var sum sim.Time
	cnt := 0
	for r := 2; r < rounds; r++ {
		if lastWake[r] > sigAt[r] {
			sum += lastWake[r] - sigAt[r]
			cnt++
		}
	}
	if cnt == 0 {
		return MicroResult{Name: name, Cycles: 0, Report: rep}
	}
	return MicroResult{Name: name, Cycles: float64(sum) / float64(cnt), Samples: cnt, Report: rep}
}

func mustRun(m *machine.Machine, what string) {
	if _, err := m.Run(RunDeadline); err != nil {
		panic(fmt.Sprintf("workload: %s: %v", what, err))
	}
}

// Micros runs all five Fig. 5 microbenchmarks.
func Micros(cfg machine.Config, lib *syncrt.Lib) []MicroResult {
	return []MicroResult{
		MicroLockAcquire(cfg, lib),
		MicroLockHandoff(cfg, lib),
		MicroBarrierHandoff(cfg, lib),
		MicroCondSignal(cfg, lib),
		MicroCondBroadcast(cfg, lib),
	}
}
