// Package syncrt is the synchronization runtime library the workloads link
// against. It implements the paper's modified algorithms (Algorithms 1-3):
// try the hardware instruction first, fall back to a software implementation
// on FAIL/ABORT, and notify the OMU with FINISH where required. It also
// provides the pure-software baselines the evaluation compares: a
// pthread-style test-and-test-and-set mutex with bounded exponential
// backoff, a raw spinlock, a ticket lock, an MCS queue lock, a centralized
// sense-reversing barrier, a tournament barrier, and Mesa-semantics
// condition variables. All software paths execute real loads, stores, and
// atomics through the simulated cache hierarchy, so their cost emerges from
// the coherence and network models.
package syncrt

import (
	"fmt"

	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/tm"
)

// LockKind selects a software lock implementation.
type LockKind uint8

const (
	// LockTTS is the pthread-style test-and-test-and-set lock with bounded
	// exponential backoff (the paper's software baseline and HW fallback).
	LockTTS LockKind = iota
	// LockSpin is a raw test-and-set spinlock (Fig. 5's "spinlock").
	LockSpin
	// LockTicket is a FIFO ticket lock.
	LockTicket
	// LockMCS is the MCS queue lock (the paper's "MCS" advanced baseline).
	LockMCS
)

// CondKind selects the condition-variable semantics.
type CondKind uint8

const (
	// CondMesa allows spurious wakeups (POSIX default; waiters re-check
	// their predicate in a loop).
	CondMesa CondKind = iota
	// CondNoSpurious implements the paper's §4.3.2 timestamp scheme: a
	// waiter returns only for a genuine signal or broadcast, re-waiting
	// after hardware ABORTs.
	CondNoSpurious
)

// BarrierKind selects a software barrier implementation.
type BarrierKind uint8

const (
	// BarrierCentral is a centralized sense-reversing barrier (pthread-like).
	BarrierCentral BarrierKind = iota
	// BarrierTournament is the MCS tournament barrier ("Tour" baseline).
	BarrierTournament
	// BarrierTree is the treeAry-way combining-tree barrier: shallower than
	// the tournament at large participant counts, with bounded fan-in at
	// every counter. The software baseline for the 256/1024-tile sweeps.
	BarrierTree
)

// Lib is a library configuration: whether the hardware instructions are
// attempted first, and which software implementations serve as primary
// (when UseHW is false) or fallback (when UseHW is true).
type Lib struct {
	UseHW   bool
	Lock    LockKind
	Barrier BarrierKind
	Cond    CondKind

	// TM runs critical sections as transactions (internal/tm) instead of
	// lock/unlock pairs: Critical becomes a retried transaction and
	// Load/Store inside it become transactional. Barriers and condition
	// variables keep their configured (software or hardware) paths —
	// transactions replace mutual exclusion, not rendezvous. Explicit
	// Lock/Unlock calls still work under TM (workloads whose critical
	// sections cannot be expressed as closures, e.g. cond-var wait loops,
	// keep using them).
	TM bool
	// TMNoValidate disables commit-time read-set validation — a
	// deliberately broken protocol used to prove the runtime checker and
	// the tm-commit model both catch it. Never enable outside tests.
	TMNoValidate bool
}

// Desc returns a short stable identifier for the configuration, e.g.
// "hw+tts/central/mesa". It is deliberately not a String method: the
// experiment harness fingerprints *Lib with %+v for memoization, and a
// Stringer would collapse distinct configurations sharing a description.
func (l *Lib) Desc() string {
	lock := [...]string{"tts", "spin", "ticket", "mcs"}[l.Lock]
	bar := [...]string{"central", "tour", "tree"}[l.Barrier]
	cond := [...]string{"mesa", "nospurious"}[l.Cond]
	prefix := "sw"
	if l.UseHW {
		prefix = "hw"
	}
	if l.TM {
		prefix = "tm"
		if l.TMNoValidate {
			prefix = "tm-noval"
		}
	}
	return prefix + "+" + lock + "/" + bar + "/" + cond
}

// PthreadLib is the paper's software baseline: pthread-style everything.
func PthreadLib() *Lib { return &Lib{Lock: LockTTS, Barrier: BarrierCentral} }

// SpinLib swaps the mutex for a raw spinlock (Fig. 5).
func SpinLib() *Lib { return &Lib{Lock: LockSpin, Barrier: BarrierCentral} }

// MCSTourLib is the advanced software baseline: MCS locks and tournament
// barriers (the paper's "MCS-Tour").
func MCSTourLib() *Lib { return &Lib{Lock: LockMCS, Barrier: BarrierTournament} }

// MCSTreeLib pairs MCS locks with the combining-tree barrier — the scaling
// software baseline for the 256/1024-tile machines, where the tournament's
// log2 depth starts to dominate barrier latency.
func MCSTreeLib() *Lib { return &Lib{Lock: LockMCS, Barrier: BarrierTree} }

// HWLib is the paper's modified library (Algorithms 1-3): hardware first,
// pthread-style software fallback.
func HWLib() *Lib { return &Lib{UseHW: true, Lock: LockTTS, Barrier: BarrierCentral} }

// TMLib runs critical sections as TL2-style software transactions
// (internal/tm), with the pthread-style software paths for barriers,
// condition variables, and any explicit Lock/Unlock a workload still issues.
func TMLib() *Lib { return &Lib{TM: true, Lock: LockTTS, Barrier: BarrierCentral} }

// Mutex, Cond and Barrier are synchronization variables. They are plain
// descriptors — all state lives in simulated memory (and the MSA).
type Mutex struct{ Addr memory.Addr }

type Cond struct{ Addr memory.Addr }

type Barrier struct {
	Addr     memory.Addr
	Goal     int
	flagBase memory.Addr // tournament flag arena
}

// T is a per-thread binding of the library: it carries the thread-local
// software synchronization state (backoff PRNG, barrier generations, MCS
// queue node).
type T struct {
	E   cpu.Env
	lib *Lib

	rngState uint64
	gen      map[memory.Addr]uint64 // per-barrier/cond generation
	qnode    memory.Addr            // this thread's MCS queue node

	// Software-path latency histograms, resolved once at bind time. Nil
	// (zero-cost) when the machine is unmetered.
	swLockLat    *metrics.Histogram
	swUnlockLat  *metrics.Histogram
	swBarrierLat *metrics.Histogram
	swCondLat    *metrics.Histogram

	// tm is the thread's transaction context, bound only when lib.TM.
	tm *tm.Ctx
}

// Bind creates the per-thread library handle. qnodeArena must give each
// thread a private cache line for its MCS node; use Arena.QNode. Metric
// instruments are resolved here, once; the safety-invariant checker is
// fetched through e.Check() at each registration, so the registration lands
// at the cycle the thread reached, after its posted operations.
func (l *Lib) Bind(e cpu.Env, qnode memory.Addr) *T {
	t := &T{
		E:        e,
		lib:      l,
		rngState: uint64(e.ThreadID())*0x9E3779B97F4A7C15 + 0x1234567,
		gen:      make(map[memory.Addr]uint64),
		qnode:    qnode,
	}
	if reg := e.Metrics(); reg != nil {
		t.swLockLat = reg.Histogram("syncrt.sw_lock_cycles")
		t.swUnlockLat = reg.Histogram("syncrt.sw_unlock_cycles")
		t.swBarrierLat = reg.Histogram("syncrt.sw_barrier_cycles")
		t.swCondLat = reg.Histogram("syncrt.sw_cond_wait_cycles")
	}
	if l.TM {
		t.tm = tm.New(e, l.TMNoValidate)
	}
	return t
}

// TM returns the thread's transaction context, nil unless the library is
// transactional.
func (t *T) TM() *tm.Ctx { return t.tm }

// Critical runs body as one critical section protected by m: a Lock/Unlock
// pair under lock-based libraries (the exact operation sequence of writing
// the pair by hand), a retried transaction under TM (m is then unused —
// conflicts are data-driven, not name-driven). Inside a transactional body,
// use t.Load / t.Store (or t.TM().Read / Write) for shared data; the body
// may re-run after aborts, so it must be idempotent up to its transactional
// writes.
func (t *T) Critical(m Mutex, body func()) {
	if t.lib.TM {
		t.tm.Run(body)
		return
	}
	t.Lock(m)
	body()
	t.Unlock(m)
}

// Load reads a shared word: transactionally when called inside a
// transactional Critical, directly through the cache hierarchy otherwise.
func (t *T) Load(a memory.Addr) uint64 {
	if t.tm.InTx() {
		return t.tm.Read(a)
	}
	return t.E.Load(a)
}

// Store writes a shared word; transactional inside a transactional Critical
// (buffered until commit), direct otherwise.
func (t *T) Store(a memory.Addr, v uint64) {
	if t.tm.InTx() {
		t.tm.Write(a, v)
		return
	}
	t.E.Store(a, v)
}

// nextRand is a tiny deterministic xorshift for backoff jitter.
func (t *T) nextRand() uint64 {
	x := t.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rngState = x
	return x
}

// timedSwLock and friends wrap the software fallbacks with latency
// observation. The histogram pointers are nil on an unmetered machine, so
// the overhead there is two engine-clock reads per fallback — off the
// hardware fast path entirely.
func (t *T) timedSwLock(a memory.Addr) {
	t.E.Check().LockWaiting(a, t.E.ThreadID(), fault.WorldSW)
	start := t.E.Now()
	t.swLock(a)
	// The acquiring CAS has committed and the thread runs synchronously with
	// the event kernel parked, so this registration is atomic with respect to
	// every other simulated operation on a.
	t.E.Check().LockAcquired(a, t.E.ThreadID(), fault.WorldSW)
	t.swLockLat.Observe(uint64(t.E.Now() - start))
}

func (t *T) timedSwUnlock(a memory.Addr) {
	// World-consistent release registration: when the library is
	// hardware-first, the UNLOCK instruction already visited the MSA (or
	// failed locally in always-fail mode) and the SW release was registered
	// there — at the point the protocol's OMU bookkeeping treats the lock as
	// leaving the software world. Registering here instead would race a
	// subsequent hardware grant processed at the slice before this thread's
	// FAIL response arrived. Pure-software libraries never issue the
	// instruction, so the thread-side registration is the only one.
	if !t.lib.UseHW {
		t.E.Check().LockReleased(a, fault.WorldSW)
	}
	start := t.E.Now()
	t.swUnlock(a)
	t.swUnlockLat.Observe(uint64(t.E.Now() - start))
}

func (t *T) timedSwBarrier(b Barrier) {
	start := t.E.Now()
	t.swBarrier(b)
	t.swBarrierLat.Observe(uint64(t.E.Now() - start))
}

func (t *T) timedSwCondWait(c Cond, m Mutex) {
	t.E.Check().CondWaiting(c.Addr, t.E.ThreadID())
	start := t.E.Now()
	t.swCondWait(c, m)
	t.swCondLat.Observe(uint64(t.E.Now() - start))
	t.E.Check().CondWoken(c.Addr, t.E.ThreadID())
}

func (t *T) timedSwCondWaitNS(c Cond, m Mutex) {
	t.E.Check().CondWaiting(c.Addr, t.E.ThreadID())
	start := t.E.Now()
	t.swCondWaitNS(c, m)
	t.swCondLat.Observe(uint64(t.E.Now() - start))
	t.E.Check().CondWoken(c.Addr, t.E.ThreadID())
}

// --- Algorithm 1: Lock / Unlock ---

// Lock acquires m, trying the hardware LOCK instruction first.
func (t *T) Lock(m Mutex) {
	if t.lib.UseHW {
		res := t.E.Sync(isa.OpLock, m.Addr, 0, 0)
		if res == isa.Success {
			return
		}
		// FAIL or ABORT: fall back to the software lock.
	}
	t.timedSwLock(m.Addr)
}

// Unlock releases m, trying the hardware UNLOCK instruction first.
func (t *T) Unlock(m Mutex) {
	if t.lib.UseHW {
		if t.E.Sync(isa.OpUnlock, m.Addr, 0, 0) == isa.Success {
			return
		}
	}
	t.timedSwUnlock(m.Addr)
}

// --- Algorithm 2: Barrier ---

// Wait blocks until all b.Goal participants arrive.
func (t *T) Wait(b Barrier) {
	if t.lib.UseHW {
		res := t.E.Sync(isa.OpBarrier, b.Addr, b.Goal, 0)
		if res == isa.Success {
			return
		}
		t.timedSwBarrier(b)
		// Notify the OMU that this thread has left the software barrier.
		t.E.Sync(isa.OpFinish, b.Addr, 0, 0)
		return
	}
	t.timedSwBarrier(b)
}

// --- Algorithm 3: Condition variables ---

// CondWait atomically releases m and waits on c, re-acquiring m before
// returning. Under the default Mesa semantics spurious wakeups are possible
// (callers must re-check their predicate in a loop); under CondNoSpurious
// the wait returns only for a genuine signal or broadcast.
func (t *T) CondWait(c Cond, m Mutex) {
	if t.lib.Cond == CondNoSpurious {
		if t.lib.UseHW {
			t.condWaitNS(c, m)
			return
		}
		t.timedSwCondWaitNS(c, m)
		return
	}
	if t.lib.UseHW {
		switch t.E.Sync(isa.OpCondWait, c.Addr, 0, m.Addr) {
		case isa.Success:
			return // woken and lock re-acquired by the MSA
		case isa.Abort:
			// Suspension/teardown: re-acquire the lock (spurious wakeup)
			// and tell the OMU we are out.
			t.Lock(m)
			t.E.Sync(isa.OpFinish, c.Addr, 0, 0)
			return
		}
		t.timedSwCondWait(c, m)
		t.E.Sync(isa.OpFinish, c.Addr, 0, 0)
		return
	}
	t.timedSwCondWait(c, m)
}

// CondSignal wakes at least one waiter of c, if any.
func (t *T) CondSignal(c Cond) {
	if t.lib.Cond == CondNoSpurious {
		if t.lib.UseHW {
			t.condSignalNS(c)
			return
		}
		t.swCondSignalNS(c)
		return
	}
	if t.lib.UseHW {
		if t.E.Sync(isa.OpCondSignal, c.Addr, 0, 0) == isa.Success {
			return
		}
	}
	t.swCondBump(c)
}

// CondBroadcast wakes all waiters of c.
func (t *T) CondBroadcast(c Cond) {
	if t.lib.Cond == CondNoSpurious {
		if t.lib.UseHW {
			t.condBcastNS(c)
			return
		}
		t.swCondBcastNS(c)
		return
	}
	if t.lib.UseHW {
		if t.E.Sync(isa.OpCondBcast, c.Addr, 0, 0) == isa.Success {
			return
		}
	}
	t.swCondBump(c)
}

func (t *T) String() string {
	return fmt.Sprintf("T(%d)", t.E.ThreadID())
}
