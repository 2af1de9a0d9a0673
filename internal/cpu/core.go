package cpu

import (
	"fmt"

	"misar/internal/coherence"
	corepkg "misar/internal/core"
	"misar/internal/fault"
	"misar/internal/isa"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/stats"
)

// Mode selects how synchronization instructions are implemented.
type Mode uint8

const (
	// ModeMSA sends synchronization requests to the MSA home tile.
	ModeMSA Mode = iota
	// ModeAlwaysFail is the paper's MSA-0: every instruction returns FAIL
	// locally without any message — the trivial ISA implementation.
	ModeAlwaysFail
	// ModeIdeal resolves synchronization with zero latency and perfect
	// semantics (the paper's Ideal configuration).
	ModeIdeal
)

// Config describes one core's synchronization behaviour.
type Config struct {
	Mode Mode
	// HWSyncOpt enables the §5 silent re-acquire fast path at the core.
	HWSyncOpt bool
	// IssueLatency is the per-synchronization-instruction pipeline cost
	// (the instructions act as fences and issue at commit; the paper found
	// the resulting stalls negligible, and so do we — but we model them).
	IssueLatency sim.Time
}

// DefaultConfig returns the standard core configuration.
func DefaultConfig() Config {
	return Config{Mode: ModeMSA, HWSyncOpt: true, IssueLatency: 1}
}

// Stats counts per-core activity.
type Stats struct {
	SyncIssued      [9]uint64 // indexed by isa.SyncOp
	SilentLocks     uint64    // LOCKs completed locally via the HWSync bit
	SyncStallCycles sim.Time  // cycles spent waiting for sync responses
	// SyncStallByKind breaks SyncStallCycles down by the class of the
	// stalling instruction (indexed by LatencyKind).
	SyncStallByKind [numLatKinds]sim.Time
	ComputeCycles   uint64
	Suspends        uint64
	Resumes         uint64
	Migrations      uint64
}

// LatencyKind buckets the per-operation latency histograms a core keeps.
type LatencyKind int

// Histogram indices for Core.Latency.
const (
	LatLock LatencyKind = iota
	LatUnlock
	LatBarrier
	LatCond
	numLatKinds
)

func latKindOf(op isa.SyncOp) LatencyKind {
	switch op {
	case isa.OpLock:
		return LatLock
	case isa.OpUnlock:
		return LatUnlock
	case isa.OpBarrier:
		return LatBarrier
	}
	return LatCond
}

// outstanding tracks the single in-flight synchronization instruction.
type outstanding struct {
	t      *Thread
	op     isa.SyncOp
	addr   memory.Addr
	lock   memory.Addr
	issued sim.Time
	nacked bool // a SUSPEND was nacked; park on completion
}

// Core is one tile's processor. It adopts at most one thread at a time and
// has at most one outstanding synchronization instruction.
type Core struct {
	id     int
	tiles  int
	cfg    Config
	engine *sim.Engine
	l1     *coherence.L1
	// sendSync delivers a request to the MSA at the sync address's home.
	sendSync func(home int, r *corepkg.Req)
	ideal    *Ideal // shared zero-latency implementation (ModeIdeal)

	cur *Thread
	out *outstanding
	// outBuf backs out: one synchronization instruction is in flight at a
	// time, so the tracking record never needs a fresh allocation.
	outBuf outstanding
	// pendReq parks a dispatched request across its issue-latency event for
	// the static handlers below; memDone is the one closure every memory
	// access completes through. Both rely on the same single-outstanding-
	// operation invariant: c.cur cannot change between dispatch and the
	// event firing, because the issuing thread stays blocked until then.
	pendReq   threadReq
	memDone   func(v uint64)
	pollDone  func(v uint64) // memDone for a Poll's loads
	idealDone func(res isa.Result)
	rmwFn     coherence.RMWFunc
	// reqPool supplies outgoing MSA requests (nil: plain allocation).
	reqPool *corepkg.ReqPool
	gen     uint64 // context-switch generation (invalidates stale grants)
	// expectGrant counts HWSync block grants this thread is entitled to
	// install, per line. Cleared on context switch.
	expectGrant map[memory.Addr]int

	stats    Stats
	lat      [numLatKinds]stats.Histogram
	metrics  *metrics.Registry   // nil unless the machine is metered
	check    *fault.Checker      // nil unless invariant checking is enabled
	injector *fault.Injector     // nil unless fault injection is enabled
	flight   *obs.FlightRecorder // this core's shard recorder; nil when absent
}

// Latency returns the core's latency histogram for one operation class.
func (c *Core) Latency(k LatencyKind) *stats.Histogram { return &c.lat[k] }

// SetMetrics attaches the machine's metrics registry (nil detaches). The
// core itself records through its Stats struct either way; the registry is
// exposed to the thread via Env.Metrics so the synchronization runtime can
// resolve its own instruments.
func (c *Core) SetMetrics(r *metrics.Registry) { c.metrics = r }

// Metrics returns the attached registry (nil when metering is off).
func (c *Core) Metrics() *metrics.Registry { return c.metrics }

// SetChecker attaches the safety-invariant checker (nil detaches). The core
// registers silent lock re-acquisitions (the §5 fast path completes locally,
// before the home slice learns of it) and exposes the checker to thread code
// via Env.Check.
func (c *Core) SetChecker(ch *fault.Checker) { c.check = ch }

// SetReqPool makes outgoing MSA requests come from p (the machine recycles
// each request after the destination slice handles it).
func (c *Core) SetReqPool(p *corepkg.ReqPool) { c.reqPool = p }

// SetInjector attaches the machine's fault injector (nil detaches). The core
// itself injects nothing; the injector is exposed to thread code via
// Env.Faults so the TM runtime can roll its spurious-abort site.
func (c *Core) SetInjector(i *fault.Injector) { c.injector = i }

// SetFlight attaches this core's shard flight recorder (nil detaches). The
// core records its synchronization instructions' issue and completion and
// its context switches there; thread code reaches the same ring via
// Env.Flight for transaction begin/commit/abort events.
func (c *Core) SetFlight(f *obs.FlightRecorder) { c.flight = f }

// fl records one event of this core's instruction stream: a single
// ring-slot store, no allocations (a bare core without a ring pays one
// comparison).
func (c *Core) fl(kind obs.FlightKind, addr memory.Addr, arg uint32) {
	if c.flight == nil {
		return
	}
	c.flight.Record(obs.FlightEvent{
		At: c.engine.Now(), Kind: kind, Tile: int16(c.id),
		Core: int16(c.id), Addr: addr, Arg: arg,
	})
}

// NewCore builds a core. sendSync is wired by the machine; ideal may be nil
// unless Mode is ModeIdeal.
func NewCore(id, tiles int, cfg Config, engine *sim.Engine, l1 *coherence.L1,
	sendSync func(home int, r *corepkg.Req), ideal *Ideal) *Core {
	c := &Core{
		id: id, tiles: tiles, cfg: cfg, engine: engine, l1: l1,
		sendSync: sendSync, ideal: ideal,
		expectGrant: make(map[memory.Addr]int),
	}
	c.memDone = func(v uint64) { c.resume(c.cur, v) }
	c.pollDone = func(v uint64) { c.pollLoaded(c.cur, v) }
	c.idealDone = func(res isa.Result) { c.resume(c.cur, uint64(res)) }
	// rmwFn interprets the pending RMW request when the L1 commits it. The
	// core has one access in flight at a time and the issuing thread stays
	// blocked until it commits, so pendReq is stable even across a miss.
	c.rmwFn = func(st *memory.Store, a memory.Addr) uint64 {
		r := &c.pendReq
		switch r.rmw {
		case rmwAdd:
			return st.Add(a, r.val)
		case rmwSwap:
			return st.Swap(a, r.val)
		default: // rmwCAS
			if _, ok := st.CompareAndSwap(a, r.val2, r.val); ok {
				return 1
			}
			return 0
		}
	}
	l1.SetAcceptHWSync(func(line memory.Addr) bool {
		if c.expectGrant[line] > 0 {
			c.expectGrant[line]--
			return true
		}
		return false
	})
	return c
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Outstanding reports the core's in-flight synchronization instruction for
// the liveness watchdog: operation, address, and issue cycle. ok is false
// when nothing is outstanding.
func (c *Core) Outstanding() (op isa.SyncOp, addr memory.Addr, issued sim.Time, ok bool) {
	if c.out == nil {
		return 0, 0, 0, false
	}
	return c.out.op, c.out.addr, c.out.issued, true
}

// Current returns the thread currently adopted by this core (nil if idle).
func (c *Core) Current() *Thread { return c.cur }

// ID returns the core's tile id.
func (c *Core) ID() int { return c.id }

// adopt installs a thread on this core and processes its next request.
func (c *Core) adopt(t *Thread) {
	if c.cur != nil {
		panic(fmt.Sprintf("cpu: core %d already runs thread %d", c.id, c.cur.id))
	}
	if c.out != nil {
		panic(fmt.Sprintf("cpu: core %d adopting a thread with a response still in flight", c.id))
	}
	c.cur = t
	t.core = c
}

// await blocks the kernel until the current thread sends its next batch,
// then issues the batch's first operation.
func (c *Core) await() {
	t := c.cur
	if _, ok := <-t.toKernel; !ok {
		c.cur = nil
		t.finish()
		return
	}
	t.next = 0
	c.proceed(t, 0)
}

// proceed continues the thread after an operation completed with result v:
// it issues the batch's next operation, in the completion event of the one
// before, as the thread would have issued it; or, at the end of the batch,
// it hands v to the thread and waits for its next batch.
func (c *Core) proceed(t *Thread, v uint64) {
	if i := t.next; i < len(t.ops) {
		t.next++
		c.dispatch(t, t.ops[i])
		return
	}
	t.toThread <- v
	c.await()
}

// resume continues the thread after an operation completed with result v —
// unless a suspension is pending, in which case the thread parks with the
// result delivered (and its batch continued) when it is resumed.
func (c *Core) resume(t *Thread, v uint64) {
	if t.wantSuspend {
		t.park(parkedResult, v)
		return
	}
	c.proceed(t, v)
}

func (c *Core) dispatch(t *Thread, r threadReq) {
	switch r.kind {
	case reqCompute:
		c.stats.ComputeCycles += r.cycles
		c.engine.AfterCall(sim.Time(r.cycles), coreComputeDone, c)
	case reqLoad:
		c.l1.Access(r.addr, coherence.AccLoad, 0, nil, c.memDone)
	case reqStore:
		c.l1.Access(r.addr, coherence.AccStore, r.val, nil, c.memDone)
	case reqRMW:
		c.pendReq = r
		c.l1.Access(r.addr, coherence.AccRMW, 0, c.rmwFn, c.memDone)
	case reqSync:
		c.stats.SyncIssued[r.op]++
		c.fl(obs.FIssue, r.addr, uint32(r.op))
		c.handleSync(t, r)
	case reqPoll:
		// The Poll lives in the thread, not the core, so a suspension can
		// carry it to another core (parkedPoll, parkedReissue).
		t.reissue = r
		c.l1.Access(r.addr, coherence.AccLoad, 0, nil, c.pollDone)
	}
}

// pollLoaded continues the current thread's Poll after one of its loads
// committed with value v. It makes the engine calls the thread-side loop
// would make after that Load returned: end the wait, or pay the pause
// (Compute(0) is no handoff, so a zero pause loads again at once).
func (c *Core) pollLoaded(t *Thread, v uint64) {
	if t.wantSuspend {
		t.park(parkedPoll, v) // Resume tests v here, as the loop would
		return
	}
	r := &t.reissue
	switch {
	case r.until.Holds(v, r.val):
		c.proceed(t, v)
	case r.cycles == 0:
		c.l1.Access(r.addr, coherence.AccLoad, 0, nil, c.pollDone)
	default:
		c.stats.ComputeCycles += r.cycles
		c.engine.AfterCall(sim.Time(r.cycles), corePollPauseDone, c)
	}
}

func (c *Core) handleSync(t *Thread, r threadReq) {
	switch c.cfg.Mode {
	case ModeAlwaysFail:
		// MSA-0: fail locally, no message (§6: the trivial implementation).
		if r.op == isa.OpUnlock {
			// The library's software release follows this FAIL; hardware-
			// first libraries register software releases at the point the
			// FAIL is produced (see syncrt.timedSwUnlock), which here is
			// the core itself.
			c.check.LockReleased(r.addr, fault.WorldSW)
		}
		if r.op == isa.OpFinish {
			c.engine.AfterCall(c.cfg.IssueLatency, coreResumeSuccess, c)
		} else {
			c.engine.AfterCall(c.cfg.IssueLatency, coreResumeFail, c)
		}
		return
	case ModeIdeal:
		// Pay the 1-cycle issue cost so time always advances, then resolve
		// with zero communication latency.
		c.pendReq = r
		c.engine.AfterCall(c.cfg.IssueLatency, coreIdealIssue, c)
		return
	}
	// ModeMSA.
	home := memory.HomeOf(r.addr, c.tiles)
	switch {
	case r.op == isa.OpFinish:
		c.sendSync(home, c.reqPool.Get(corepkg.Req{Op: r.op, Addr: r.addr, Core: c.id}))
		c.engine.AfterCall(c.cfg.IssueLatency, coreResumeSuccess, c)
	case r.op == isa.OpLock && c.cfg.HWSyncOpt && c.l1.HWSyncHit(r.addr):
		// §5 fast path: the lock's line is still here, writable, with the
		// HWSync bit — re-acquire silently and just notify the home.
		c.stats.SilentLocks++
		c.check.LockAcquired(r.addr, c.id, fault.WorldHW)
		c.sendSync(home, c.reqPool.Get(corepkg.Req{Op: isa.OpLockSilent, Addr: r.addr, Core: c.id}))
		c.engine.AfterCall(c.cfg.IssueLatency, coreResumeSuccess, c)
	default:
		c.outBuf = outstanding{t: t, op: r.op, addr: r.addr, lock: r.lock, issued: c.engine.Now()}
		c.out = &c.outBuf
		c.pendReq = r
		c.engine.AfterCall(c.cfg.IssueLatency, coreSendPending, c)
	}
}

// Static event handlers for the dispatch paths above; arg is the *Core.
// Each fires while the issuing thread's operation is the core's only
// outstanding work, so c.cur is still the issuing thread.
func coreComputeDone(arg any) { c := arg.(*Core); c.resume(c.cur, 0) }

// corePollPauseDone ends one pause of a Poll: the next load, or, with a
// suspension pending, a park that re-issues the Poll on Resume.
func corePollPauseDone(arg any) {
	c := arg.(*Core)
	t := c.cur
	if t.wantSuspend {
		t.park(parkedReissue, 0)
		return
	}
	c.l1.Access(t.reissue.addr, coherence.AccLoad, 0, nil, c.pollDone)
}

func coreResumeFail(arg any) { c := arg.(*Core); c.resume(c.cur, uint64(isa.Fail)) }

func coreResumeSuccess(arg any) { c := arg.(*Core); c.resume(c.cur, uint64(isa.Success)) }

func coreIdealIssue(arg any) {
	c := arg.(*Core)
	r := c.pendReq
	c.ideal.Do(c.cur, r.op, r.addr, r.goal, r.lock, c.idealDone)
}

func coreSendPending(arg any) {
	c := arg.(*Core)
	r := c.pendReq
	c.sendSync(memory.HomeOf(r.addr, c.tiles),
		c.reqPool.Get(corepkg.Req{Op: r.op, Addr: r.addr, Core: c.id, Goal: r.goal, Lock: r.lock}))
}

// sendSuspend notifies the home of the outstanding operation's address that
// this core is being interrupted (§4.1.2).
func (c *Core) sendSuspend(o *outstanding) {
	home := memory.HomeOf(o.addr, c.tiles)
	c.sendSync(home, c.reqPool.Get(corepkg.Req{Op: isa.OpSuspend, Addr: o.addr, Core: c.id}))
}

// HandleResp processes an MSA response addressed to this core.
func (c *Core) HandleResp(r *corepkg.Resp) {
	if r.Op == isa.OpSuspend {
		// Nack: not queued at that home; keep waiting for the original
		// response and park when it arrives. The nack can also arrive
		// *after* the original response resolved the operation (the grant
		// and the SUSPEND crossed in the network) — then it is stale and
		// ignored. If a different operation is outstanding by then, marking
		// it nacked is harmless: it only suppresses a redundant SUSPEND.
		if c.out != nil {
			c.out.nacked = true
		}
		return
	}
	if c.out == nil {
		panic(fmt.Sprintf("cpu: core %d got %v response with nothing outstanding", c.id, r.Op))
	}
	// Copy the record: once c.out is cleared, resuming the thread (or its
	// scheduler callbacks) may adopt other work that reuses outBuf.
	o := *c.out
	if r.Op != o.op || r.Addr != o.addr {
		panic(fmt.Sprintf("cpu: core %d response %v/%#x does not match outstanding %v/%#x",
			c.id, r.Op, r.Addr, o.op, o.addr))
	}
	c.out = nil
	c.outBuf = outstanding{} // drop the thread reference
	elapsed := c.engine.Now() - o.issued
	c.stats.SyncStallCycles += elapsed
	c.stats.SyncStallByKind[latKindOf(o.op)] += elapsed
	c.lat[latKindOf(o.op)].Observe(uint64(elapsed))
	c.fl(obs.FComplete, o.addr, uint32(o.op)<<8|uint32(r.Result))
	if r.ClearHWSync {
		// Handoff: drop the bit *and* any in-flight grant entitlement for
		// this line — a grant still in the network belongs to our previous
		// tenure and must not re-arm the silent path.
		line := memory.LineOf(r.Addr)
		c.l1.ClearHWSyncLine(line)
		delete(c.expectGrant, line)
	}
	if r.Result == isa.Abort && r.Reason == corepkg.ReasonRequeue {
		// Our own suspension dequeued the LOCK: squash and re-execute the
		// instruction when the thread resumes (§4.1.2).
		o.t.park(parkedReissue, uint64(r.Op))
		o.t.reissue = threadReq{kind: reqSync, op: o.op, addr: o.addr, lock: o.lock}
		return
	}
	if r.Result == isa.Success && (o.op == isa.OpLock || o.op == isa.OpCondWait) && c.cfg.HWSyncOpt {
		// A HWSync block grant is on its way for the lock's line.
		line := memory.LineOf(o.addr)
		if o.op == isa.OpCondWait {
			line = memory.LineOf(o.lock)
		}
		c.expectGrant[line]++
	}
	// With a suspension pending the thread parks: the instruction completes
	// and the fallback code runs when the thread is scheduled again (§4.3.2).
	c.resume(o.t, uint64(r.Result))
}

// contextSwitch clears per-thread state a departing thread leaves on the
// core: HWSync bits (a new thread must not silently acquire the old
// thread's locks) and pending grant entitlements.
func (c *Core) contextSwitch() {
	c.fl(obs.FCtxSwitch, 0, 0)
	c.gen++
	c.l1.ClearAllHWSync()
	for k := range c.expectGrant {
		delete(c.expectGrant, k)
	}
}
