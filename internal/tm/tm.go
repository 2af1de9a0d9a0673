// Package tm is a software transactional-memory runtime for the simulated
// machine: a word-based, lazy-versioning STM in the TL2 style (Dice, Shalev,
// Shavit, DISC 2006) whose every load, store, and compare-and-swap executes
// through the simulated L1 / directory / NoC via cpu.Env. It is the third
// synchronization backend next to the pthread-style software libraries and
// the MSA hardware path (see syncrt.TMLib).
//
// # Protocol
//
// Shared TM metadata lives at fixed simulated addresses below the workload
// arena: a global version clock and a 256-entry table of versioned lock
// words, each on its own cache line so clock and lock traffic exercise the
// coherence protocol like any other contended data. A lock word encodes
// version<<1 | lockedBit; simulated memory zero-fills, so version 0 /
// unlocked needs no initialization.
//
//   - Begin samples the global clock into rv (the read version).
//   - A transactional read loads the word's lock word, the word, and the
//     lock word again: if the lock word is locked, newer than rv, or changed
//     across the sandwich, the transaction aborts (the snapshot would not be
//     consistent at rv).
//   - Writes are buffered in the write set; reads see their own writes.
//   - Commit locks the write set's lock words in ascending slot order with
//     CAS (aborting, not blocking, if any is busy), increments the global
//     clock to obtain the write version wv, validates the read set — skipped
//     when wv == rv+1, because then no other transaction can have committed
//     since Begin — writes back, and releases each lock word to wv<<1.
//   - Aborts restore the original lock words, back off (bounded exponential
//     with per-thread deterministic jitter), and retry.
//
// # Verification
//
// The commit protocol is certified by the "tm-commit" counter-abstraction
// model in internal/verify, with broken variants (skipped validation, leaked
// commit lock, blind lock acquisition) refuted by short witnesses. Bridge
// tests in verify pin each abstract rule to the concrete transition here,
// and fault.Checker's TM* hooks shadow runs at the exact linearization
// points documented in internal/fault/check.go.
package tm

import (
	"sort"

	"misar/internal/cpu"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/obs"
)

// Fixed simulated addresses of the TM metadata region. Both sit below the
// workload arena base used throughout internal/workload (0x1000000) and
// clear of the synchronization-variable region, so no workload data aliases
// a lock word.
const (
	// ClockAddr holds the global version clock, alone on its line.
	ClockAddr memory.Addr = 0xF00000
	// LockBase is the first of LockSlots versioned lock words, one per
	// cache line so two slots never false-share.
	LockBase memory.Addr = 0xF10000
	// LockSlots is the lock table size. Fibonacci-hashing the word address
	// spreads neighboring words across slots.
	LockSlots = 256
)

// LockAddr returns the simulated address of the versioned lock word covering
// word address a. Words that hash to the same slot share a lock (false
// conflicts are possible, never missed conflicts).
func LockAddr(a memory.Addr) memory.Addr {
	slot := (uint64(a>>3) * 0x9E3779B97F4A7C15) >> 56
	return LockBase + memory.Addr(slot)*memory.LineSize
}

// AbortReason classifies why a transaction attempt aborted; it is the Arg of
// obs.FTxAbort flight events.
type AbortReason uint8

const (
	// AbortReadConflict: a transactional read saw a locked or too-new lock
	// word (the snapshot would not be consistent at rv).
	AbortReadConflict AbortReason = iota
	// AbortLockBusy: commit found one of its write-set lock words held.
	AbortLockBusy
	// AbortValidation: commit-time read-set validation failed.
	AbortValidation
	// AbortForced: a fault-injection spurious abort (fault.Plan.TMAbortRate).
	AbortForced
	numAbortReasons
)

var abortReasonNames = [numAbortReasons]string{
	"read-conflict", "lock-busy", "validation", "forced",
}

func (r AbortReason) String() string {
	if int(r) < len(abortReasonNames) {
		return abortReasonNames[r]
	}
	return "AbortReason(?)"
}

func init() {
	obs.RegisterArgNames(obs.FTxAbort, abortReasonNames[:])
}

// abortSignal unwinds a transaction body when Read detects a conflict; Run
// recovers it and retries. Any other panic (including the kernel's
// thread-kill) passes through.
type abortSignal struct{}

// backoff bounds. Units are Compute cycles; the jitter keeps two aborters
// from re-colliding in lockstep while staying deterministic per thread.
const (
	backoffBase = 32
	backoffCap  = 4096
)

// readEntry is one read-set record: the word read, its lock word's address,
// and the lock word value the read sandwich observed.
type readEntry struct {
	word memory.Addr
	lock memory.Addr
	seen uint64
}

// writeEntry is one buffered store, kept in program order for write-back.
type writeEntry struct {
	addr memory.Addr
	val  uint64
}

// lockAcq records one commit-time lock acquisition: the slot's lock word
// address and its pre-acquisition value (restored on abort).
type lockAcq struct {
	lock memory.Addr
	old  uint64
}

// Ctx is one thread's transaction context. Bind one per thread (it is not
// concurrency-safe); reuse it across transactions — the sets are recycled.
//
// Two API layers share the state: Run executes a closure with panic-based
// abort/retry (what syncrt uses), while Begin / TryRead / Write / TryCommit
// expose each protocol step with explicit outcomes so the verify bridge
// tests can drive one abstract rule at a time.
type Ctx struct {
	e          cpu.Env
	noValidate bool // broken variant for checker/model refutation tests
	rng        uint64

	commits    *metrics.Counter
	aborts     *metrics.Counter
	retries    *metrics.Counter
	clockBumps *metrics.Counter

	active  bool
	rv      uint64 // global clock sample at Begin
	attempt uint32 // attempt number within the current Run, 0-based

	reads  []readEntry
	writes []writeEntry
	windex map[memory.Addr]int // word -> writes index (read-your-own-write)
	locked []lockAcq           // commit-time acquisitions, ascending slot order
	slots  []memory.Addr       // scratch: unique write-set lock addresses
	words  []memory.Addr       // scratch: unique written words, for the checker
}

// New binds a transaction context to a thread's environment. Metric
// instruments are resolved once here, like syncrt.Bind's; the checker, the
// fault injector and the flight recorder are fetched through e at each use,
// so every registration, fault draw and flight record lands at the cycle the
// thread reached, after its posted operations.
func New(e cpu.Env, noValidate bool) *Ctx {
	reg := e.Metrics()
	return &Ctx{
		e:          e,
		noValidate: noValidate,
		rng:        uint64(e.ThreadID())*0x9E3779B97F4A7C15 + 0x1234567,
		commits:    reg.Counter("tm.commits"),
		aborts:     reg.Counter("tm.aborts"),
		retries:    reg.Counter("tm.retries"),
		clockBumps: reg.Counter("tm.clock_bumps"),
		windex:     make(map[memory.Addr]int, 8),
	}
}

// InTx reports whether a transaction is open. Nil-receiver-safe so callers
// without a TM context (lock-based libraries) pay one comparison.
func (c *Ctx) InTx() bool { return c != nil && c.active }

// Begin opens a transaction attempt: clears the sets and samples the global
// clock as the read version.
func (c *Ctx) Begin() {
	c.active = true
	c.reads = c.reads[:0]
	c.writes = c.writes[:0]
	for k := range c.windex {
		delete(c.windex, k)
	}
	c.rv = c.e.Load(ClockAddr)
	c.recordFlight(obs.FTxBegin, 0, c.attempt)
}

// TryRead performs one transactional load of the word containing a. ok=false
// means the attempt aborted (already recorded); the caller must retry from
// Begin. Reads see the transaction's own buffered writes.
func (c *Ctx) TryRead(a memory.Addr) (v uint64, ok bool) {
	a = memory.WordOf(a)
	if i, hit := c.windex[a]; hit {
		return c.writes[i].val, true
	}
	la := LockAddr(a)
	l1 := c.e.Load(la)
	if l1&1 != 0 || l1>>1 > c.rv {
		c.selfAbort(AbortReadConflict, a)
		return 0, false
	}
	v = c.e.Load(a)
	if c.e.Load(la) != l1 {
		c.selfAbort(AbortReadConflict, a)
		return 0, false
	}
	// Shadow the read now: atomic with the validating (second) lock-word
	// load just issued — no simulated op separates them.
	c.e.Check().TMRead(c.e.ThreadID(), a)
	// Record for commit-time validation, deduplicating by word. (Two words
	// sharing a slot record separate entries; re-validating a slot twice is
	// harmless.)
	for i := range c.reads {
		if c.reads[i].word == a {
			return v, true
		}
	}
	c.reads = append(c.reads, readEntry{word: a, lock: la, seen: l1})
	return v, true
}

// Read is TryRead with panic-based abort propagation, for use inside Run
// bodies.
func (c *Ctx) Read(a memory.Addr) uint64 {
	v, ok := c.TryRead(a)
	if !ok {
		panic(abortSignal{})
	}
	return v
}

// Write buffers a transactional store of the word containing a. It never
// fails; conflicts surface at commit.
func (c *Ctx) Write(a memory.Addr, v uint64) {
	a = memory.WordOf(a)
	if i, hit := c.windex[a]; hit {
		c.writes[i].val = v
		return
	}
	c.windex[a] = len(c.writes)
	c.writes = append(c.writes, writeEntry{addr: a, val: v})
}

// TryCommit attempts to commit the open transaction. true: the transaction
// is durable (reads validated, writes visible). false: it aborted (already
// recorded); retry from Begin.
func (c *Ctx) TryCommit() bool {
	tid := c.e.ThreadID()
	if len(c.writes) == 0 {
		// Read-only fast path: every read was validated against rv by its
		// sandwich, so the whole snapshot is consistent at rv — no locks,
		// no clock bump (TL2's read-only rule).
		c.active = false
		c.e.Check().TMCommit(tid, true, nil)
		c.commits.Inc()
		c.recordFlight(obs.FTxCommit, 0, 0)
		return true
	}

	// Collect the write set's distinct lock slots, ascending. Sorted
	// acquisition is not needed for deadlock freedom (we abort on a busy
	// lock, never block) but keeps the simulated op sequence — and thus the
	// cycle count — independent of write order.
	c.slots = c.slots[:0]
	c.words = c.words[:0]
	for i := range c.writes {
		c.words = append(c.words, c.writes[i].addr)
		la := LockAddr(c.writes[i].addr)
		dup := false
		for _, s := range c.slots {
			if s == la {
				dup = true
				break
			}
		}
		if !dup {
			c.slots = append(c.slots, la)
		}
	}
	sort.Slice(c.slots, func(i, j int) bool { return c.slots[i] < c.slots[j] })

	// Lock phase: CAS each slot from its current unlocked value to
	// value|1. A locked or too-new slot aborts the attempt.
	c.locked = c.locked[:0]
	for _, la := range c.slots {
		cur := c.e.Load(la)
		if cur&1 != 0 || !c.e.CAS(la, cur, cur|1) {
			c.abortCommit(AbortLockBusy, la)
			return false
		}
		c.locked = append(c.locked, lockAcq{lock: la, old: cur})
		// Shadow the acquisition per covered written word, atomic with the
		// CAS that just succeeded.
		for _, w := range c.words {
			if LockAddr(w) == la {
				c.e.Check().TMCommitLock(w, tid)
			}
		}
	}

	// Fault injection: a forced spurious abort exercises abort-release
	// under a full lock hold. Rolled once per lock-holding commit attempt.
	if c.e.Faults().ForceTMAbort() {
		c.abortCommit(AbortForced, 0)
		return false
	}

	// Write version: bump the global clock. wv is strictly greater than the
	// rv of every transaction that began before this point.
	wv := c.e.FetchAdd(ClockAddr, 1) + 1
	c.clockBumps.Inc()

	if c.noValidate || wv == c.rv+1 {
		// Validation skipped. When wv == rv+1 no transaction committed
		// between our Begin and our clock bump, so every sandwich-validated
		// read is still current — provably safe, and the checker's
		// whole-read-set freshness check (atomic with the FetchAdd above)
		// agrees. Under noValidate the same call is how the broken variant
		// gets caught.
		c.e.Check().TMCommit(tid, false, c.words)
	} else {
		// Validate each read word: its lock slot must be unchanged since
		// the read — unless we hold it ourselves, in which case compare
		// against the pre-acquisition value.
		for i := range c.reads {
			r := &c.reads[i]
			if old, own := c.ownLock(r.lock); own {
				if old != r.seen {
					c.abortCommit(AbortValidation, r.word)
					return false
				}
			} else if c.e.Load(r.lock) != r.seen {
				c.abortCommit(AbortValidation, r.word)
				return false
			}
			c.e.Check().TMValidated(tid, r.word)
		}
		c.e.Check().TMCommit(tid, true, c.words)
	}

	// Write back in program order, then release each slot to wv<<1
	// (unlocked, new version). The shadow generations were bumped by
	// TMCommit above, before any store became visible. The shadow unlock
	// precedes the releasing store's ISSUE: a competing CAS can only
	// succeed after that store commits, so the shadow release is ordered
	// before any foreign shadow acquire even when a thread suspension
	// defers the completion-side code (see fault/check.go).
	for i := range c.writes {
		c.e.Store(c.writes[i].addr, c.writes[i].val)
	}
	for _, l := range c.locked {
		for _, w := range c.words {
			if LockAddr(w) == l.lock {
				c.e.Check().TMCommitUnlock(w, tid)
			}
		}
		c.e.Store(l.lock, wv<<1)
	}
	c.locked = c.locked[:0]
	c.active = false
	c.commits.Inc()
	c.recordFlight(obs.FTxCommit, 0, uint32(len(c.writes)))
	return true
}

// ownLock reports whether the commit phase holds la, returning its
// pre-acquisition value.
func (c *Ctx) ownLock(la memory.Addr) (old uint64, own bool) {
	for i := range c.locked {
		if c.locked[i].lock == la {
			return c.locked[i].old, true
		}
	}
	return 0, false
}

// selfAbort records an abort detected during the read phase (no locks held).
func (c *Ctx) selfAbort(reason AbortReason, a memory.Addr) {
	c.active = false
	c.e.Check().TMAbort(c.e.ThreadID())
	c.aborts.Inc()
	c.recordFlight(obs.FTxAbort, a, uint32(reason))
}

// abortCommit unwinds a failed commit phase: every acquired lock word is
// restored to its pre-acquisition value (version unchanged, unlocked). As in
// the commit path, the shadow unlock precedes the restoring store's issue.
func (c *Ctx) abortCommit(reason AbortReason, a memory.Addr) {
	tid := c.e.ThreadID()
	for _, l := range c.locked {
		for _, w := range c.words {
			if LockAddr(w) == l.lock {
				c.e.Check().TMCommitUnlock(w, tid)
			}
		}
		c.e.Store(l.lock, l.old)
	}
	c.locked = c.locked[:0]
	c.active = false
	c.e.Check().TMAbort(tid)
	c.aborts.Inc()
	c.recordFlight(obs.FTxAbort, a, uint32(reason))
}

// Run executes body as one transaction, retrying on abort with bounded
// exponential backoff. body may call Read / Write (and TryRead / TryCommit
// must not be mixed in). Reads that hit conflicts unwind body by panic;
// anything body allocated or computed in the doomed attempt is discarded.
func (c *Ctx) Run(body func()) {
	c.attempt = 0
	for {
		c.Begin()
		if c.runBody(body) && c.TryCommit() {
			return
		}
		c.retries.Inc()
		c.backoff()
		c.attempt++
	}
}

// runBody invokes body, converting an abortSignal panic into ok=false. The
// kernel's thread-kill panic (and genuine bugs) propagate.
func (c *Ctx) runBody(body func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(abortSignal); is {
				ok = false
				return
			}
			panic(r)
		}
	}()
	body()
	return true
}

// backoff burns a bounded, jittered number of cycles after an abort.
func (c *Ctx) backoff() {
	shift := c.attempt
	if shift > 7 { // 32<<7 == backoffCap; larger shifts would overflow
		shift = 7
	}
	window := uint64(backoffBase) << shift
	c.e.Compute(backoffBase + c.nextRand()%window)
}

// nextRand is the per-thread xorshift64 stream (same generator as syncrt).
func (c *Ctx) nextRand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// recordFlight emits one TM flight event on this core's recorder.
func (c *Ctx) recordFlight(kind obs.FlightKind, a memory.Addr, arg uint32) {
	f := c.e.Flight()
	if f == nil {
		return
	}
	f.Record(obs.FlightEvent{
		At: c.e.Now(), Kind: kind, Addr: a, Arg: arg,
		Tile: int16(c.e.Core()), Core: int16(c.e.ThreadID()),
	})
}
