package syncrt

import "misar/internal/cpu"

// Software condition variables with Mesa semantics: the cond word is a
// generation counter; waiters record it, release the mutex, and poll until
// it changes; signal and broadcast bump it. All woken spinners re-acquire
// the mutex and re-check their predicate, so spurious wakeups (which POSIX
// permits, and which the paper's ABORT path also produces) are handled by
// the caller's standard while-loop.
//
// As §4.3.3 requires, the internal lock operations use the library's
// Lock/Unlock — i.e. the hardware-first Algorithm 1 when UseHW is set — so a
// software-managed condition variable composes with a hardware-managed lock.

const condPollCycles = 48

// condCallOverhead is the library-call cost of the software condition
// variable operations.
const condCallOverhead = 30

func (t *T) swCondWait(c Cond, m Mutex) {
	t.E.Compute(condCallOverhead)
	g := t.E.Load(c.Addr)
	t.Unlock(m)
	t.E.Poll(c.Addr, cpu.UntilNe, g, condPollCycles)
	t.Lock(m)
}

// swCondBump implements both signal and broadcast: every polling waiter
// observes the new generation and races to re-acquire the mutex. This is
// how spin-based (futex-less) pthread implementations behave; it makes
// software signals effectively broadcast-shaped, which is exactly the
// inefficiency the MSA's direct notification removes.
func (t *T) swCondBump(c Cond) {
	t.E.Compute(condCallOverhead / 2)
	t.E.FetchAdd(c.Addr, 1)
}
