package core

import (
	"fmt"

	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/obs"
)

// msaMsgNames decodes msaMsgKind for the flight recorder (registered so obs
// can render FMsaMsg args without importing core).
var msaMsgNames = [...]string{"unlock&pin", "unlock&pin-resp", "lock-behalf", "unpin", "omu-adjust"}

func init() { obs.RegisterArgNames(obs.FMsaMsg, msaMsgNames[:]) }

// Condition-variable support (§4.3). A COND_WAIT atomically releases the
// associated lock and enqueues the waiter; the release travels to the lock's
// home as an UNLOCK&PIN message that also pins the lock's MSA entry so it
// cannot be deallocated while the condition variable holds an entry. Waking
// a waiter sends a LOCK request to the lock's home on the waiter's behalf;
// the lock's home replies directly to the waiter when the lock is granted,
// completing the COND_WAIT instruction. The last wake carries LOCK&UNPIN.

func (s *Slice) handleCondWait(r *Req) {
	cond, lock, c := r.Addr, r.Lock, r.Core
	e := s.find(isa.TypeCond, cond)
	if e != nil {
		if e.reserved || e.pinCore >= 0 {
			// Another waiter mid-handshake would have to hold the same lock
			// concurrently — impossible for a correctly used cond var.
			panic(fmt.Sprintf("core: concurrent COND_WAIT handshakes on %#x", cond))
		}
		// Hit: release the (already pinned) lock on the waiter's behalf.
		e.pinCore = c
		s.sendMsa(memory.HomeOf(lock, s.tiles), &MsaMsg{
			Kind: kindUnlockPin, Lock: lock, Cond: cond, Core: c, NeedPin: false,
		})
		return
	}
	e = s.tryAllocate(isa.TypeCond, cond)
	if e == nil {
		s.stats.CondSW++
		s.omuInc(cond)
		s.respond(c, isa.OpCondWait, cond, isa.Fail, ReasonNone)
		return
	}
	// Reserve the entry (§4.3.1): it becomes real only if the lock's home
	// confirms the unlock-and-pin.
	e.reserved = true
	e.lockAddr = lock
	e.pinCore = c
	s.sendMsa(memory.HomeOf(lock, s.tiles), &MsaMsg{
		Kind: kindUnlockPin, Lock: lock, Cond: cond, Core: c, NeedPin: true,
	})
}

func (s *Slice) handleCondSignal(r *Req, bcast bool) {
	op := isa.OpCondSignal
	if bcast {
		op = isa.OpCondBcast
	}
	e := s.find(isa.TypeCond, r.Addr)
	if e == nil {
		s.stats.CondSW++
		s.respond(r.Core, op, r.Addr, isa.Fail, ReasonNone)
		return
	}
	if e.reserved || e.pinCore >= 0 {
		// A waiter's handshake is in flight; hold the signal until it
		// resolves so a signal sent under the mutex is never lost.
		if bcast {
			e.pendBcast = append(e.pendBcast, r.Core)
		} else {
			e.pendSig = append(e.pendSig, r.Core)
		}
		return
	}
	s.deliverSignal(e, r.Core, bcast)
}

// deliverSignal wakes waiter(s) for a live entry and acknowledges the
// signaler. An entry exists only while it has waiters, so a hit always wakes
// at least one.
func (s *Slice) deliverSignal(e *entry, signaler int, bcast bool) {
	s.stats.CondHW++
	op := isa.OpCondSignal
	if bcast {
		op = isa.OpCondBcast
	}
	s.respond(signaler, op, e.addr, isa.Success, ReasonNone)
	if bcast {
		for s.wakeOne(e) {
		}
		return
	}
	s.wakeOne(e)
}

// wakeOne releases one waiter (NBTC order), sending the lock's home a LOCK
// on the waiter's behalf — LOCK&UNPIN if this empties the queue, which also
// frees the entry. It reports whether a waiter was woken.
func (s *Slice) wakeOne(e *entry) bool {
	if !e.valid || e.waiters.Empty() {
		return false
	}
	w := s.pickWaiter(e.waiters)
	e.waiters.Remove(w)
	last := e.waiters.Empty()
	s.sendMsa(memory.HomeOf(e.lockAddr, s.tiles), &MsaMsg{
		Kind: kindLockBehalf, Lock: e.lockAddr, Cond: e.addr, Core: w, Unpin: last,
	})
	if last {
		s.dealloc(e)
	}
	return true
}

// suspendCondWaiter aborts one waiting thread out of the queue (§4.3.2).
// The fallback re-acquires the lock and FINISHes, so the cond's OMU counter
// is pre-charged here to keep the books balanced.
func (s *Slice) suspendCondWaiter(e *entry, c int) {
	e.waiters.Remove(c)
	s.omuInc(e.addr)
	s.respond(c, isa.OpCondWait, e.addr, isa.Abort, ReasonFallback)
	if e.waiters.Empty() && !e.reserved && e.pinCore < 0 {
		s.sendMsa(memory.HomeOf(e.lockAddr, s.tiles), &MsaMsg{
			Kind: kindUnpinOnly, Lock: e.lockAddr, Cond: e.addr,
		})
		s.dealloc(e)
	}
}

// HandleMsa processes an MSA-to-MSA message.
func (s *Slice) HandleMsa(m *MsaMsg) {
	s.fl(obs.FMsaMsg, m.Lock, m.Core, uint32(m.Kind))
	switch m.Kind {
	case kindUnlockPin:
		s.handleUnlockPin(m)
	case kindUnlockPinResp:
		s.handleUnlockPinResp(m)
	case kindLockBehalf:
		s.handleLockBehalf(m)
	case kindUnpinOnly:
		s.handleUnpinOnly(m)
	case kindOmuAdjust:
		s.omuInc(m.Cond)
	default:
		panic(fmt.Sprintf("core: unknown MSA message kind %d", m.Kind))
	}
}

// handleUnlockPin runs at the lock's home: perform a normal unlock for the
// waiter entering COND_WAIT, pin the entry if requested, and confirm.
func (s *Slice) handleUnlockPin(m *MsaMsg) {
	condHome := memory.HomeOf(m.Cond, s.tiles)
	e := s.find(isa.TypeLock, m.Lock)
	if e == nil || e.draining || e.owner != m.Core {
		// The waiter does not hold this lock in hardware; the whole
		// cond-wait falls back to software (§4.3.1 FAIL path). The lock
		// itself is untouched.
		s.sendMsa(condHome, &MsaMsg{Kind: kindUnlockPinResp, Lock: m.Lock, Cond: m.Cond, Core: m.Core, OK: false, NeedPin: m.NeedPin})
		return
	}
	s.stats.UnlockHW++
	e.owner = -1
	// COND_WAIT's atomic release of the associated mutex.
	s.check.LockReleased(m.Lock, fault.WorldHW)
	if m.NeedPin {
		e.pins++
	}
	if !e.waiters.Empty() {
		s.promote(e)
	}
	// A pinned entry with no owner and no waiters stays allocated (§4.3.1).
	s.sendMsa(condHome, &MsaMsg{Kind: kindUnlockPinResp, Lock: m.Lock, Cond: m.Cond, Core: m.Core, OK: true, NeedPin: m.NeedPin})
}

// handleUnlockPinResp runs at the cond's home, resolving the reservation.
func (s *Slice) handleUnlockPinResp(m *MsaMsg) {
	e := s.find(isa.TypeCond, m.Cond)
	if e == nil || e.pinCore != m.Core {
		panic(fmt.Sprintf("core: stray UnlockPinResp for %#x", m.Cond))
	}
	c := e.pinCore
	e.pinCore = -1
	if m.OK {
		e.reserved = false
		e.waiters.Add(c)
		s.stats.CondHW++
		s.drainPendingSignals(e)
		return
	}
	// The unlock failed: the waiter still holds the lock and must run the
	// software cond-wait (which releases the lock itself).
	s.omuInc(e.addr)
	s.respond(c, isa.OpCondWait, e.addr, isa.Fail, ReasonNone)
	if m.NeedPin {
		// Fresh reservation: tear it down and fail any queued signalers.
		s.failPendingSignals(e)
		s.dealloc(e)
		return
	}
	s.drainPendingSignals(e)
}

func (s *Slice) drainPendingSignals(e *entry) {
	sigs, bcasts := e.pendSig, e.pendBcast
	e.pendSig, e.pendBcast = nil, nil
	for _, sg := range sigs {
		if e.valid && !e.waiters.Empty() {
			s.deliverSignal(e, sg, false)
		} else {
			s.stats.CondSW++
			s.respond(sg, isa.OpCondSignal, e.addr, isa.Fail, ReasonNone)
		}
	}
	for _, sg := range bcasts {
		if e.valid && !e.waiters.Empty() {
			s.deliverSignal(e, sg, true)
		} else {
			s.stats.CondSW++
			s.respond(sg, isa.OpCondBcast, e.addr, isa.Fail, ReasonNone)
		}
	}
}

func (s *Slice) failPendingSignals(e *entry) {
	for _, sg := range e.pendSig {
		s.stats.CondSW++
		s.respond(sg, isa.OpCondSignal, e.addr, isa.Fail, ReasonNone)
	}
	for _, sg := range e.pendBcast {
		s.stats.CondSW++
		s.respond(sg, isa.OpCondBcast, e.addr, isa.Fail, ReasonNone)
	}
	e.pendSig, e.pendBcast = nil, nil
}

// handleLockBehalf runs at the lock's home: re-acquire the lock for a woken
// cond waiter, optionally unpinning first. The grant replies directly to the
// waiter, completing its COND_WAIT.
func (s *Slice) handleLockBehalf(m *MsaMsg) {
	e := s.find(isa.TypeLock, m.Lock)
	if e == nil || e.draining {
		// The pinned entry is gone (torn down by a migrated-owner abort).
		// Fall the waiter back to software: it re-locks and FINISHes, so
		// pre-charge the cond's OMU counter.
		s.sendMsa(memory.HomeOf(m.Cond, s.tiles), &MsaMsg{Kind: kindOmuAdjust, Cond: m.Cond})
		s.respond(m.Core, isa.OpCondWait, m.Cond, isa.Abort, ReasonFallback)
		return
	}
	if m.Unpin {
		if e.pins <= 0 {
			panic(fmt.Sprintf("core: unpin of unpinned lock %#x", m.Lock))
		}
		e.pins--
	}
	s.stats.LockHW++
	s.enqueueLocker(e, m.Core, isa.OpCondWait, m.Cond)
}

// handleUnpinOnly runs at the lock's home when a cond entry died without a
// final wake (last waiter suspended).
func (s *Slice) handleUnpinOnly(m *MsaMsg) {
	e := s.find(isa.TypeLock, m.Lock)
	if e == nil {
		return
	}
	if e.pins > 0 {
		e.pins--
	}
	if e.pins == 0 && e.owner == -1 && e.waiters.Empty() && !e.draining && !e.revoking {
		s.maybeRetire(e)
	}
}
