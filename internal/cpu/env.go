// Package cpu models the cores and the simulated threads that run on them.
//
// A simulated thread is a Go goroutine that issues timed operations —
// Compute, loads/stores/atomics, and the MiSAR synchronization instructions —
// through the Env interface. The event kernel and the thread goroutines hand
// control back and forth synchronously (exactly one runs at a time), so the
// simulation stays deterministic while workload and synchronization-library
// code reads as ordinary sequential Go.
//
// A handoff to the kernel and back dominates the simulator's wall time, so
// the thread makes as few as it can. Compute and Store are posted: their
// results are never used, so the thread queues them and runs on, and the
// next request that needs the kernel carries the whole batch in one handoff
// (at most maxPosted posted operations ride in one batch). The core issues
// the batch in order, each operation from the completion event of the one
// before, so the engine sees the same calls in the same order and at the
// same cycles as with one handoff per operation. A spin-wait (Env.Poll)
// likewise runs on the core: the core issues the loop's loads and pauses
// itself and hands control back to the thread once, when the wait ends.
//
// Each core runs one thread at a time (the paper's configuration). The
// scheduler shim supports suspending a thread, resuming it on the same or a
// different core (migration), which exercises the MSA's SUSPEND/ABORT paths.
package cpu

import (
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/obs"
	"misar/internal/sim"
)

// Env is the execution environment a simulated thread sees. Operations
// commit in program order. Compute and Store are posted: they return at
// once and commit before whatever the thread asks next of the kernel. Every
// other method first lets the posted operations commit, then blocks (in
// simulated time) until its own operation commits, so a value it returns
// reflects everything the thread did before it.
//
// Go code between two Env calls runs at the simulated instant of the last
// call that returned a value, which may be before the thread's posted
// operations commit. So code that other threads can observe (Go state they
// share, a checker registration, a fault draw, a flight record) must come
// after an Env call that orders it: Now() when nothing else does.
type Env interface {
	// ThreadID identifies the thread; Core the tile it currently runs on.
	ThreadID() int
	Core() int
	// Now returns the current simulated cycle.
	Now() sim.Time
	// Compute advances the thread by a block of computation (posted).
	Compute(cycles uint64)
	// Load/Store access the simulated memory through this core's L1; a
	// Store is posted.
	Load(a memory.Addr) uint64
	Store(a memory.Addr, v uint64)
	// FetchAdd/Swap/CAS are atomic read-modify-writes.
	FetchAdd(a memory.Addr, delta uint64) uint64
	Swap(a memory.Addr, v uint64) uint64
	CAS(a memory.Addr, old, new uint64) bool
	// Poll spin-waits on one word: it runs
	//
	//	v := Load(a)
	//	for !until.Holds(v, x) { Compute(pause); v = Load(a) }
	//
	// and returns the v that ended the wait. The core runs the loop, so
	// the whole wait costs one handoff instead of two per iteration; its
	// simulated timing, and where a pending suspension takes effect (after
	// any load or pause), are exactly the loop's.
	Poll(a memory.Addr, until Until, x, pause uint64) uint64
	// Sync executes a synchronization instruction. goal is the barrier
	// participant count; lock is COND_WAIT's associated lock.
	Sync(op isa.SyncOp, addr memory.Addr, goal int, lock memory.Addr) isa.Result
	// Metrics returns the machine's metrics registry, or nil when metering
	// is disabled. Library code resolves instruments through it once at bind
	// time (a nil registry yields nil, zero-cost instruments): counters,
	// max-gauges and histograms sum to the same result in any order.
	Metrics() *metrics.Registry
	// Check returns the machine's safety-invariant checker, or nil when
	// invariant checking is disabled; a nil checker's methods are no-ops.
	// A non-nil checker is returned after the posted operations commit, so
	// fetch it at each use: a registration then lands at the cycle the
	// thread reached.
	Check() *fault.Checker
	// Faults returns the machine's fault injector, or nil when fault
	// injection is disabled (nil-receiver-safe; fetch at each use, like
	// Check).
	Faults() *fault.Injector
	// Flight returns the flight recorder of this core's shard, or nil when
	// none is attached (nil-receiver-safe; fetch at each use, like Check).
	Flight() *obs.FlightRecorder
}

// Until is the exit condition of a Poll: the wait ends on the first loaded
// value v for which Holds(v, x) is true.
type Until uint8

const (
	UntilEq Until = iota // v == x
	UntilNe              // v != x
	UntilGe              // v >= x
)

// Holds reports whether v ends a Poll whose exit condition is u with
// operand x.
func (u Until) Holds(v, x uint64) bool {
	switch u {
	case UntilEq:
		return v == x
	case UntilNe:
		return v != x
	default: // UntilGe
		return v >= x
	}
}

// reqKind enumerates thread→kernel requests.
type reqKind uint8

const (
	reqCompute reqKind = iota
	reqLoad
	reqStore
	reqRMW
	reqSync
	reqPoll // addr, until, val = x, cycles = pause
)

// rmwKind selects the atomic read-modify-write operation. RMW requests carry
// an opcode plus operands rather than a closure so issuing one stays
// allocation-free; the core owns the single closure that interprets them.
type rmwKind uint8

const (
	rmwAdd  rmwKind = iota // val = delta
	rmwSwap                // val = new value
	rmwCAS                 // val = new value, val2 = expected old value
)

type threadReq struct {
	kind   reqKind
	cycles uint64
	addr   memory.Addr
	val    uint64
	val2   uint64
	rmw    rmwKind
	op     isa.SyncOp
	until  Until
	goal   int
	lock   memory.Addr
}

// maxPosted bounds a thread's batch of posted operations: the batch is sent
// when it reaches this many, which bounds its memory and makes a thread
// that only computes still hand control to the kernel.
const maxPosted = 64

// threadKilled is panicked inside a thread goroutine to unwind it when the
// machine is torn down mid-run.
type threadKilled struct{}

// env implements Env for one thread.
type env struct{ t *Thread }

func (e env) ThreadID() int { return e.t.id }

func (e env) Core() int {
	e.flush()
	return e.t.core.id
}

func (e env) Now() sim.Time {
	e.flush()
	return e.t.core.engine.Now()
}

func (e env) Metrics() *metrics.Registry { return e.t.core.metrics }

func (e env) Check() *fault.Checker {
	if e.t.core.check != nil {
		e.flush()
	}
	return e.t.core.check
}

func (e env) Faults() *fault.Injector {
	if e.t.core.injector != nil {
		e.flush()
	}
	return e.t.core.injector
}

func (e env) Flight() *obs.FlightRecorder {
	if e.t.core.flight != nil {
		e.flush()
	}
	return e.t.core.flight // after the flush: the thread may have migrated
}

// post queues an operation whose result the thread does not use.
func (e env) post(r threadReq) {
	e.t.ops = append(e.t.ops, r)
	if len(e.t.ops) == maxPosted {
		e.send()
	}
}

// flush lets the posted operations commit.
func (e env) flush() {
	if len(e.t.ops) > 0 {
		e.send()
	}
}

// call sends the batch with r as its last operation and blocks until r's
// result arrives.
func (e env) call(r threadReq) uint64 {
	e.t.ops = append(e.t.ops, r)
	return e.send()
}

func (e env) send() uint64 {
	v, ok := e.t.send()
	if !ok {
		panic(threadKilled{})
	}
	return v
}

func (e env) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	e.post(threadReq{kind: reqCompute, cycles: cycles})
}

func (e env) Load(a memory.Addr) uint64 {
	return e.call(threadReq{kind: reqLoad, addr: a})
}

func (e env) Store(a memory.Addr, v uint64) {
	e.post(threadReq{kind: reqStore, addr: a, val: v})
}

func (e env) FetchAdd(a memory.Addr, delta uint64) uint64 {
	return e.call(threadReq{kind: reqRMW, addr: a, rmw: rmwAdd, val: delta})
}

func (e env) Swap(a memory.Addr, v uint64) uint64 {
	return e.call(threadReq{kind: reqRMW, addr: a, rmw: rmwSwap, val: v})
}

func (e env) CAS(a memory.Addr, old, new uint64) bool {
	return e.call(threadReq{kind: reqRMW, addr: a, rmw: rmwCAS, val: new, val2: old}) == 1
}

func (e env) Poll(a memory.Addr, until Until, x, pause uint64) uint64 {
	return e.call(threadReq{kind: reqPoll, addr: a, until: until, val: x, cycles: pause})
}

func (e env) Sync(op isa.SyncOp, addr memory.Addr, goal int, lock memory.Addr) isa.Result {
	v := e.call(threadReq{kind: reqSync, op: op, addr: addr, goal: goal, lock: lock})
	return isa.Result(v)
}
