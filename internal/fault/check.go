package fault

import (
	"fmt"
	"sort"
	"sync"

	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/sim"
)

// World says which implementation of a synchronization variable an event
// came from: the hardware MSA or the software fallback runtime.
type World uint8

const (
	WorldHW World = iota
	WorldSW
)

func (w World) String() string {
	if w == WorldHW {
		return "HW"
	}
	return "SW"
}

// ViolationKind classifies a broken safety invariant.
type ViolationKind uint8

const (
	// ViolationExclusivity: an address became live in an MSA entry while
	// threads were still active in its software path — the OMU property of
	// PAPER.md §3.2 ("the hardware and software worlds never handle the
	// same variable concurrently").
	ViolationExclusivity ViolationKind = iota
	// ViolationMutex: a lock was acquired while already held, or released
	// while free.
	ViolationMutex
	// ViolationLockWorld: a lock was released from a different world than
	// it was acquired in — the HW/SW split the OMU exists to prevent.
	ViolationLockWorld
	// ViolationBarrierEpoch: a thread arrived twice in one barrier epoch,
	// an epoch overfilled, or a release fired with the wrong arrival count.
	ViolationBarrierEpoch
	// ViolationBarrierWorld: one barrier epoch collected arrivals from both
	// the MSA and the software barrier — a split episode that deadlocks
	// (each side waits for the full goal).
	ViolationBarrierWorld
	// ViolationShardDelivery: a cross-shard NoC message arrived at a
	// destination shard carrying a timestamp behind an earlier arrival on
	// that shard — the conservative parallel kernel's no-straggler property
	// (every delivery lands in the receiver's future) broken at runtime.
	ViolationShardDelivery
	// ViolationTMCommitOverlap: two in-flight TM commit phases held the same
	// word's commit lock at once — conflicting write sets were not
	// serialized (the tm-commit model's two-commit-writers predicate), or a
	// commit lock was leaked/released while free (its lock-leak predicate).
	ViolationTMCommitOverlap
	// ViolationTMAtomicity: a transaction committed against a read snapshot
	// that a concurrent committed write had invalidated — the atomicity
	// read-set validation exists to guarantee (the tm-commit model's
	// stale-commit predicate).
	ViolationTMAtomicity
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationExclusivity:
		return "omu-exclusivity"
	case ViolationMutex:
		return "mutual-exclusion"
	case ViolationLockWorld:
		return "lock-world-split"
	case ViolationBarrierEpoch:
		return "barrier-epoch"
	case ViolationBarrierWorld:
		return "barrier-world-split"
	case ViolationShardDelivery:
		return "shard-delivery"
	case ViolationTMCommitOverlap:
		return "tm-commit-overlap"
	case ViolationTMAtomicity:
		return "tm-atomicity"
	}
	return "unknown"
}

// Violation is one detected invariant breach.
type Violation struct {
	Kind   ViolationKind
	Addr   memory.Addr
	At     sim.Time
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[cycle %d] %s at %#x: %s", v.At, v.Kind, v.Addr, v.Detail)
}

// maxViolations bounds the recorded list; a broken machine can breach an
// invariant on every operation and we only need the first few for triage.
const maxViolations = 64

type lockHold struct {
	holder int // core id (HW) or thread id (SW)
	world  World
}

type barrierEpoch struct {
	goal    int
	world   World
	split   bool // already reported a world split this epoch
	arrived map[int]bool
}

// Checker verifies the paper's safety invariants online, fed by the MSA
// slices, the cores, and the software sync runtime. All methods are
// nil-receiver-safe and do nothing on nil. It performs pure Go bookkeeping —
// no simulated operations, no event scheduling — so an attached checker is
// timing-invisible: cycle counts are identical with it on or off.
//
// On a serial machine it is driven only from the simulation's
// single-threaded world (kernel event handlers, and thread code that runs
// while the kernel is parked on the synchronous handoff channel), so it
// needs no locking. A sharded machine feeds it from every shard goroutine
// concurrently; Synchronize installs an internal mutex for that case. The
// lock affects only host wall-clock, never simulated timing.
type Checker struct {
	now        func() sim.Time
	mu         *sync.Mutex // nil on serial machines; see Synchronize
	violations []Violation
	count      *metrics.Counter

	swLevel  map[memory.Addr]int           // threads active in the SW path, per address
	locks    map[memory.Addr]lockHold      // currently-held locks
	lockWts  map[memory.Addr]map[int]World // threads waiting for a lock in SW
	condWts  map[memory.Addr]map[int]bool  // threads waiting on a SW condvar
	epochs   map[memory.Addr]*barrierEpoch
	shardHWM map[int]sim.Time // per-shard high-water cross-shard delivery timestamp

	// TM shadow state (see internal/tm and the tm-commit model): a
	// committed-write generation per word, each in-flight transaction's
	// read snapshots of those generations, and the commit-lock holders.
	tmGen    map[memory.Addr]uint64
	tmReads  map[int]map[memory.Addr]uint64 // thread id -> word -> generation at first read
	tmCommit map[memory.Addr]int            // word -> thread id holding its commit lock
}

// NewChecker builds a checker; now supplies the simulation clock for
// violation timestamps (nil is allowed and stamps 0).
func NewChecker(now func() sim.Time) *Checker {
	return &Checker{
		now:      now,
		swLevel:  make(map[memory.Addr]int),
		locks:    make(map[memory.Addr]lockHold),
		lockWts:  make(map[memory.Addr]map[int]World),
		condWts:  make(map[memory.Addr]map[int]bool),
		epochs:   make(map[memory.Addr]*barrierEpoch),
		shardHWM: make(map[int]sim.Time),
		tmGen:    make(map[memory.Addr]uint64),
		tmReads:  make(map[int]map[memory.Addr]uint64),
		tmCommit: make(map[memory.Addr]int),
	}
}

// ShardDelivery records a cross-shard NoC arrival at a destination shard
// with the message's scheduled timestamp. The conservative kernel delivers
// each shard's cross-shard messages in non-decreasing timestamp order
// (every injection lands at or beyond the shard's window start), so a
// timestamp behind the shard's high-water mark is a straggler — the runtime
// shadow of the window-protocol model's no-straggler property.
func (c *Checker) ShardDelivery(shard int, when sim.Time) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if hwm, ok := c.shardHWM[shard]; ok && when < hwm {
		c.violate(ViolationShardDelivery, 0,
			"shard %d delivery at t=%d behind high-water t=%d (straggler)", shard, when, hwm)
		return
	}
	c.shardHWM[shard] = when
}

// Synchronize guards every checker method with a mutex, for machines that
// feed the checker from multiple shard goroutines. Call before the run
// starts. Safe on a nil checker.
func (c *Checker) Synchronize() {
	if c != nil {
		c.mu = new(sync.Mutex)
	}
}

func (c *Checker) lock() {
	if c.mu != nil {
		c.mu.Lock()
	}
}

func (c *Checker) unlock() {
	if c.mu != nil {
		c.mu.Unlock()
	}
}

// AttachMetrics resolves the violation counter. Safe on nil checker/registry.
func (c *Checker) AttachMetrics(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.count = reg.Counter("fault.violations")
}

func (c *Checker) violate(kind ViolationKind, addr memory.Addr, format string, args ...any) {
	c.count.Inc()
	if len(c.violations) >= maxViolations {
		return
	}
	var at sim.Time
	if c.now != nil {
		at = c.now()
	}
	c.violations = append(c.violations, Violation{
		Kind: kind, Addr: addr, At: at, Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns the recorded breaches (nil on a nil checker).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.lock()
	defer c.unlock()
	return c.violations
}

// SWEnter records a thread becoming active in the software path of addr
// (mirrors an OMU counter increment, but exact per address — untagged OMU
// counters alias, the shadow does not). No invariant is asserted here: the
// protocol legally pre-charges the OMU while an entry is still draining
// (lock-abort and condition-suspend flows).
func (c *Checker) SWEnter(addr memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	c.swLevel[addr]++
}

// SWExit records a thread leaving the software path of addr.
func (c *Checker) SWExit(addr memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if c.swLevel[addr] <= 0 {
		c.violate(ViolationExclusivity, addr, "SW-activity underflow (exit without enter)")
		return
	}
	c.swLevel[addr]--
	if c.swLevel[addr] == 0 {
		delete(c.swLevel, addr)
	}
}

// SWLevel returns the exact software-activity level for addr.
func (c *Checker) SWLevel(addr memory.Addr) int {
	if c == nil {
		return 0
	}
	c.lock()
	defer c.unlock()
	return c.swLevel[addr]
}

// HWAlloc asserts the OMU exclusivity property at the moment an MSA entry
// is allocated: no thread may still be active in the software path of the
// same address. This is the check the UnsafeNoOMUCheck test toggle defeats
// upstream — and the one that then catches it.
func (c *Checker) HWAlloc(addr memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if lvl := c.swLevel[addr]; lvl > 0 {
		c.violate(ViolationExclusivity, addr,
			"MSA entry allocated while %d thread(s) active in the software path", lvl)
	}
}

// LockWaiting records id starting to wait for addr in world (software spin
// loops register here; hardware waiters are visible through the MSA entry
// wait lists and core outstanding-op state instead, but SW registration
// feeds the watchdog's wait-for graph).
func (c *Checker) LockWaiting(addr memory.Addr, id int, world World) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	w := c.lockWts[addr]
	if w == nil {
		w = make(map[int]World)
		c.lockWts[addr] = w
	}
	w[id] = world
}

// LockAcquired records id taking the lock at addr in world and asserts
// mutual exclusion. Re-registration by the same (holder, world) is a no-op
// so idempotent paths (silent re-acquire seen by both core and slice in
// some configs) stay quiet.
func (c *Checker) LockAcquired(addr memory.Addr, id int, world World) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if w := c.lockWts[addr]; w != nil {
		delete(w, id)
		if len(w) == 0 {
			delete(c.lockWts, addr)
		}
	}
	if h, held := c.locks[addr]; held {
		if h.holder == id && h.world == world {
			return
		}
		c.violate(ViolationMutex, addr,
			"acquired by %s:%d while held by %s:%d", world, id, h.world, h.holder)
	}
	c.locks[addr] = lockHold{holder: id, world: world}
}

// LockReleased records the lock at addr being released from world and
// asserts it was held, and held by the same world.
func (c *Checker) LockReleased(addr memory.Addr, world World) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	h, held := c.locks[addr]
	if !held {
		c.violate(ViolationMutex, addr, "released while free (%s side)", world)
		return
	}
	if h.world != world {
		c.violate(ViolationLockWorld, addr,
			"acquired in %s by %d but released in %s", h.world, h.holder, world)
	}
	delete(c.locks, addr)
}

// BarrierArrive records id reaching the barrier at addr in world and
// asserts epoch separation: no double arrivals, no overfilled epochs, and —
// the OMU-failure signature — no epoch mixing HW and SW arrivals.
func (c *Checker) BarrierArrive(addr memory.Addr, id, goal int, world World) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	ep := c.epochs[addr]
	if ep == nil {
		ep = &barrierEpoch{goal: goal, world: world, arrived: make(map[int]bool)}
		c.epochs[addr] = ep
	}
	if ep.world != world && !ep.split {
		ep.split = true
		c.violate(ViolationBarrierWorld, addr,
			"epoch started in %s (%d arrived) but %s:%d also arrived", ep.world, len(ep.arrived), world, id)
	}
	if ep.arrived[id] {
		c.violate(ViolationBarrierEpoch, addr,
			"%s:%d arrived twice in one epoch", world, id)
		return
	}
	ep.arrived[id] = true
	if len(ep.arrived) > ep.goal {
		c.violate(ViolationBarrierEpoch, addr,
			"epoch overfull: %d arrivals for goal %d", len(ep.arrived), ep.goal)
	}
}

// BarrierRelease records the barrier at addr releasing its epoch and
// asserts the arrival count matched the goal.
func (c *Checker) BarrierRelease(addr memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	ep := c.epochs[addr]
	if ep == nil {
		c.violate(ViolationBarrierEpoch, addr, "release with no open epoch")
		return
	}
	if len(ep.arrived) != ep.goal && !ep.split {
		c.violate(ViolationBarrierEpoch, addr,
			"released with %d/%d arrivals", len(ep.arrived), ep.goal)
	}
	delete(c.epochs, addr)
}

// BarrierAbort records the MSA abandoning the barrier episode at addr
// (suspend-triggered abort, §4.2.2): waiters restart in software, so the
// epoch bookkeeping resets.
func (c *Checker) BarrierAbort(addr memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	delete(c.epochs, addr)
}

// CondWaiting records id blocking on the software path of condvar addr.
// Not an invariant — it feeds the watchdog's wait-for graph.
func (c *Checker) CondWaiting(addr memory.Addr, id int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	w := c.condWts[addr]
	if w == nil {
		w = make(map[int]bool)
		c.condWts[addr] = w
	}
	w[id] = true
}

// CondWoken records id leaving the software wait on condvar addr.
func (c *Checker) CondWoken(addr memory.Addr, id int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if w := c.condWts[addr]; w != nil {
		delete(w, id)
		if len(w) == 0 {
			delete(c.condWts, addr)
		}
	}
}

// Waiter is one blocked agent in a snapshot.
type Waiter struct {
	ID    int
	World World
}

// LockState is the snapshot of one tracked lock for diagnosis.
type LockState struct {
	Addr    memory.Addr
	Held    bool
	Holder  int
	World   World
	Waiters []Waiter
}

// BarrierState is the snapshot of one open barrier epoch for diagnosis.
type BarrierState struct {
	Addr    memory.Addr
	Goal    int
	World   World
	Arrived []int
}

// CondState is the snapshot of one software condvar wait set for diagnosis.
type CondState struct {
	Addr    memory.Addr
	Waiters []int
}

// LockStates returns all locks that are held or waited on, sorted by
// address. Used by the liveness watchdog.
func (c *Checker) LockStates() []LockState {
	if c == nil {
		return nil
	}
	c.lock()
	defer c.unlock()
	addrs := make(map[memory.Addr]bool)
	for a := range c.locks {
		addrs[a] = true
	}
	for a := range c.lockWts {
		addrs[a] = true
	}
	out := make([]LockState, 0, len(addrs))
	for a := range addrs {
		st := LockState{Addr: a}
		if h, held := c.locks[a]; held {
			st.Held, st.Holder, st.World = true, h.holder, h.world
		}
		for id, w := range c.lockWts[a] {
			st.Waiters = append(st.Waiters, Waiter{ID: id, World: w})
		}
		sort.Slice(st.Waiters, func(i, j int) bool { return st.Waiters[i].ID < st.Waiters[j].ID })
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// BarrierStates returns all open barrier epochs, sorted by address.
func (c *Checker) BarrierStates() []BarrierState {
	if c == nil {
		return nil
	}
	c.lock()
	defer c.unlock()
	out := make([]BarrierState, 0, len(c.epochs))
	for a, ep := range c.epochs {
		st := BarrierState{Addr: a, Goal: ep.goal, World: ep.world}
		for id := range ep.arrived {
			st.Arrived = append(st.Arrived, id)
		}
		sort.Ints(st.Arrived)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// CondStates returns all software condvar wait sets, sorted by address.
func (c *Checker) CondStates() []CondState {
	if c == nil {
		return nil
	}
	c.lock()
	defer c.unlock()
	out := make([]CondState, 0, len(c.condWts))
	for a, w := range c.condWts {
		st := CondState{Addr: a}
		for id := range w {
			st.Waiters = append(st.Waiters, id)
		}
		sort.Ints(st.Waiters)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// --- TM shadow (internal/tm, certified by the tm-commit model) ---
//
// The checker keeps its own notion of "which committed write does this
// transaction's read reflect": a per-word generation bumped exactly once per
// committed writer, at the writer's commit decision. Each hook below is
// invoked from transaction code immediately after one specific simulated
// operation, so on a serial machine it is atomic with that operation:
//
//   TMRead        with TryRead's second (validating) lockword load
//   TMCommitLock  with the commit phase's acquiring CAS
//   TMValidated   with a successful validation re-load of one read word
//   TMCommit      with the clock FetchAdd (validated=false: the wv==rv+1
//                 fast path, or a broken variant that skipped validation)
//                 or the last validation load (validated=true)
//   TMCommitUnlock BEFORE the releasing store is issued (commit and abort)
//
// Under that placement the correct TL2 protocol never trips the checks (a
// writer's generation bump happens strictly inside its commit-lock hold, so
// any read that validates saw either the pre-acquire or post-release word),
// while skipped or broken validation surfaces as ViolationTMAtomicity and
// overlapping commit phases as ViolationTMCommitOverlap.
//
// Deferred completions: a thread suspension (cpu.Complex.Suspend) parks a
// thread AT an operation boundary with the result held until Resume — the
// operation's architectural effect lands at commit time, but the thread code
// carrying the hook runs arbitrarily later. Each hook therefore linearizes
// somewhere between its preceding operation's commit and its following
// operation's issue. The commit-lock shadow is exact under that interval
// semantics because TMCommitUnlock precedes the releasing store's issue: a
// foreign CAS succeeds only after the release commits, so shadow releases
// always order before foreign shadow acquires. The generation-freshness
// checks (TMValidated, unvalidated TMCommit) compare against tmGen at hook
// time and so assume no foreign commit slips between an operation's commit
// and its hook — true whenever no thread is suspended mid-transaction, which
// holds for every certification test and for the chaos TM campaigns (their
// disturbance schedule is disabled in TM mode for exactly this reason).

// TMRead records tid's first read of word a, snapshotting the word's
// committed-write generation. Later reads of the same word keep the first
// snapshot (the strictest sound choice: the transaction's outcome must be
// consistent with its earliest read).
func (c *Checker) TMRead(tid int, a memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	r := c.tmReads[tid]
	if r == nil {
		r = make(map[memory.Addr]uint64)
		c.tmReads[tid] = r
	}
	if _, seen := r[a]; !seen {
		r[a] = c.tmGen[a]
	}
}

// TMCommitLock records tid's commit phase acquiring word a's commit lock
// and asserts no other in-flight commit phase holds it.
func (c *Checker) TMCommitLock(a memory.Addr, tid int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if holder, held := c.tmCommit[a]; held {
		c.violate(ViolationTMCommitOverlap, a,
			"commit lock acquired by txn %d while held by txn %d", tid, holder)
	}
	c.tmCommit[a] = tid
}

// TMCommitUnlock records tid's commit phase releasing word a's commit lock
// (write-back and abort paths both end here).
func (c *Checker) TMCommitUnlock(a memory.Addr, tid int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	holder, held := c.tmCommit[a]
	if !held {
		c.violate(ViolationTMCommitOverlap, a,
			"commit lock released by txn %d while free", tid)
		return
	}
	if holder == tid {
		delete(c.tmCommit, a)
	}
}

// TMValidated records tid successfully re-validating its read of word a at
// commit and asserts no writer committed to a since the read.
func (c *Checker) TMValidated(tid int, a memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if snap, seen := c.tmReads[tid][a]; seen && c.tmGen[a] != snap {
		c.violate(ViolationTMAtomicity, a,
			"txn %d validated a read of generation %d but generation is %d", tid, snap, c.tmGen[a])
	}
}

// TMCommit records tid committing with write set written. When validated is
// false (the wv==rv+1 fast path — or a variant that skipped validation) the
// whole read set is asserted fresh here instead of per-word TMValidated
// calls. Every written word's generation advances, invalidating other
// transactions' snapshots of it.
func (c *Checker) TMCommit(tid int, validated bool, written []memory.Addr) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	if !validated {
		for a, snap := range c.tmReads[tid] {
			if c.tmGen[a] != snap {
				c.violate(ViolationTMAtomicity, a,
					"txn %d committed without validation over a stale read (generation %d, now %d)",
					tid, snap, c.tmGen[a])
			}
		}
	}
	for _, a := range written {
		c.tmGen[a]++
	}
	delete(c.tmReads, tid)
}

// TMAbort discards tid's read snapshots (the transaction will retry fresh).
func (c *Checker) TMAbort(tid int) {
	if c == nil {
		return
	}
	c.lock()
	defer c.unlock()
	delete(c.tmReads, tid)
}
