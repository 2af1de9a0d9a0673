package syncrt

import (
	"fmt"

	"misar/internal/cpu"
	"misar/internal/memory"
)

// Software lock implementations. Lock state lives in simulated memory:
//
//   TTS / spin : one word at addr (0 free, 1 held)
//   ticket     : next-ticket at addr, now-serving at addr+8 (same line)
//   MCS        : tail pointer at addr; per-thread queue node (next at
//                qnode, locked at qnode+8) on the thread's private line
//
// MCS encodes queue-node addresses directly as word values in simulated
// memory; zero means nil, so arenas must not hand out address 0.

// Backoff tuning. The TTS lock models pthread's adaptive mutex: short
// spins, then progressively longer sleeps (standing in for futex waits).
const (
	ttsBackoffBase = 16
	ttsBackoffCap  = 2048
	pauseCycles    = 8 // cost of one polite polling iteration
)

// Library-call overheads, charged as computation before each software
// operation: function call, argument marshalling, ownership bookkeeping and
// the memory-fence tail that the hardware instruction path does not pay
// (the MiSAR instructions are inlined single instructions). Values are in
// line with uncontended glibc/pthread costs on hardware of the paper's era.
const (
	pthreadLockOverhead   = 40
	pthreadUnlockOverhead = 20
	spinLockOverhead      = 6
	spinUnlockOverhead    = 3
	ticketLockOverhead    = 24
	ticketUnlockOverhead  = 10
	mcsLockOverhead       = 30
	mcsUnlockOverhead     = 20
)

func (t *T) swLock(a memory.Addr) {
	switch t.lib.Lock {
	case LockTTS:
		t.E.Compute(pthreadLockOverhead)
		t.ttsLock(a)
	case LockSpin:
		t.E.Compute(spinLockOverhead)
		t.spinLock(a)
	case LockTicket:
		t.E.Compute(ticketLockOverhead)
		t.ticketLock(a)
	case LockMCS:
		t.E.Compute(mcsLockOverhead)
		t.mcsLock(a)
	default:
		panic(fmt.Sprintf("syncrt: unknown lock kind %d", t.lib.Lock))
	}
}

func (t *T) swUnlock(a memory.Addr) {
	switch t.lib.Lock {
	case LockTTS:
		t.E.Compute(pthreadUnlockOverhead)
		t.E.Store(a, 0)
	case LockSpin:
		t.E.Compute(spinUnlockOverhead)
		t.E.Store(a, 0)
	case LockTicket:
		t.E.Compute(ticketUnlockOverhead)
		t.E.FetchAdd(a+8, 1)
	case LockMCS:
		t.E.Compute(mcsUnlockOverhead)
		t.mcsUnlock(a)
	default:
		panic(fmt.Sprintf("syncrt: unknown lock kind %d", t.lib.Lock))
	}
}

// ttsLock is the pthread-style test-and-test-and-set lock with bounded
// exponential backoff and deterministic jitter.
func (t *T) ttsLock(a memory.Addr) {
	delay := uint64(ttsBackoffBase)
	for {
		if t.E.Load(a) == 0 && t.E.CAS(a, 0, 1) {
			return
		}
		jitter := t.nextRand() % delay
		t.E.Compute(delay + jitter)
		if delay < ttsBackoffCap {
			delay *= 2
		}
	}
}

// spinLock is a raw test-and-set spinlock: maximum coherence traffic.
func (t *T) spinLock(a memory.Addr) {
	for !t.E.CAS(a, 0, 1) {
		t.E.Compute(pauseCycles)
	}
}

// ticketLock is a FIFO ticket lock: one fetch-add to take a ticket, then
// spin on the now-serving word.
func (t *T) ticketLock(a memory.Addr) {
	ticket := t.E.FetchAdd(a, 1)
	t.E.Poll(a+8, cpu.UntilEq, ticket, pauseCycles)
}

// mcsLock enqueues this thread's node and spins locally on its own line.
func (t *T) mcsLock(a memory.Addr) {
	n := t.qnode
	t.E.Store(n, 0)   // next = nil
	t.E.Store(n+8, 1) // locked = true
	pred := t.E.Swap(a, uint64(n))
	if pred == 0 {
		return
	}
	t.E.Store(memory.Addr(pred), uint64(n)) // pred.next = n
	t.E.Poll(n+8, cpu.UntilEq, 0, pauseCycles)
}

func (t *T) mcsUnlock(a memory.Addr) {
	n := t.qnode
	next := t.E.Load(n)
	if next == 0 {
		if t.E.CAS(a, uint64(n), 0) {
			return
		}
		// A successor is enqueueing: wait for it to link itself.
		next = t.E.Poll(n, cpu.UntilNe, 0, pauseCycles)
	}
	t.E.Store(memory.Addr(next)+8, 0) // successor.locked = false
}
