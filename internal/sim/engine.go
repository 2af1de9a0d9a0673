// Package sim provides the discrete-event simulation kernel that drives the
// entire MiSAR model. The kernel maintains a queue of events keyed by (time,
// sequence-number); all components — cores, caches, directories, routers,
// and the MSA/OMU — schedule work by posting events. Determinism is
// guaranteed because the kernel is single-threaded and ties on time are
// broken by insertion order.
//
// The queue is a 64-slot timing wheel with a heap for overflow. An event due
// within 64 cycles of now goes into the wheel slot of its cycle, an
// intrusive FIFO bucket; one occupancy word marks the non-empty buckets, so
// the earliest one is a rotate and a trailing-zeros count away. An event due
// 64 or more cycles ahead goes into an intrusive 4-ary min-heap. Every pop
// takes the smaller by (when, seq) of the earliest bucket's head and the
// heap's root. The firing order is therefore exactly (when, seq):
//
//   - A wheel event is due in [now, now+64) when scheduled and now never
//     passes it, so each bucket holds the events of one cycle, appended in
//     seq order.
//   - A heap event due at cycle t was scheduled before now reached t-63, so
//     its seq is lower than that of any wheel event for t. The comparison
//     would order them correctly either way.
//
// The kernel is allocation-free in steady state: events live in a free-list
// pool owned by the engine and are recycled on fire and on cancel, and the
// AtCall/AfterCall entry points let hot schedulers pass a (handler, arg)
// pair — a package-level function plus a pooled argument — instead of
// capturing state in a fresh closure per event.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is the simulated clock in cycles.
type Time uint64

// Handler is a scheduled callback invoked as h(arg) at the event's firing
// time. Hot paths use package-level Handler functions with pooled pointer
// arguments so scheduling allocates nothing.
type Handler func(arg any)

// closureHandler adapts the closure-based At/After API onto the
// (handler, arg) representation: the closure itself is the argument.
func closureHandler(arg any) { arg.(func())() }

// wheelSlots is the timing wheel's span in cycles. Measured on the figure
// sweep, 98.1% of events are scheduled less than 64 cycles ahead (78% less
// than 4), and 99.8% at 1024 tiles, so the overflow heap stays small. One
// occupancy word covers the wheel: a prototype with 256 slots and four words
// was slower on the one-event churn loop the kernel microbenchmarks gate.
const (
	wheelSlots = 64
	wheelMask  = wheelSlots - 1
)

// Values of event.pos other than a far-heap index.
const (
	unqueued = -1 // fired, cancelled or free
	onWheel  = -2 // in a wheel bucket
)

// event is the pooled, intrusive representation of one scheduled callback.
// Events are owned by the engine: they are recycled through a free list on
// fire and on cancel, and their callback state (h, arg) is cleared at
// release so a long-dead timer never pins captured state.
type event struct {
	when Time
	seq  uint64
	h    Handler
	arg  any
	next *event // next event in the same wheel bucket
	pos  int32  // index in Engine.far, onWheel, or unqueued
	gen  uint64 // incremented on every release; guards stale handles
}

// bucket is one wheel slot: a singly-linked FIFO of the events of one cycle.
type bucket struct{ head, tail *event }

// Event is a cancellable handle to a scheduled event. It is a value type:
// the underlying pooled storage is recycled once the event fires or is
// cancelled, and the generation stamp makes operations through stale
// handles safe no-ops. The zero Event is a valid handle to nothing.
type Event struct {
	eng  *Engine
	p    *event
	gen  uint64
	when Time
}

// When reports the cycle at which the event fires (or fired). It remains
// valid after the event completes.
func (h Event) When() Time { return h.when }

// Pending reports whether the event is still queued: it has not fired and
// has not been cancelled.
func (h Event) Pending() bool {
	return h.p != nil && h.p.gen == h.gen && h.p.pos != unqueued
}

// Cancel removes a pending event from the queue; it will not fire, does not
// advance the clock, and does not count in Fired. The event's callback and
// argument are released immediately, so a cancelled long-lived timer does
// not pin whatever state its closure captured. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (h Event) Cancel() {
	if h.p == nil || h.p.gen != h.gen || h.p.pos == unqueued {
		return
	}
	h.eng.remove(h.p)
}

// Engine is the event kernel. The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	occ     uint64             // bit s set iff wheel[s] is non-empty
	near    int                // events on the wheel
	wheel   [wheelSlots]bucket // slot when&wheelMask holds cycle when
	far     []*event           // 4-ary min-heap by (when, seq) of events due 64+ cycles ahead at scheduling
	free    []*event           // recycled events
	alloced uint64             // pool high-water mark: events ever allocated
	stopped bool
	fired   uint64
}

// NewEngine returns an empty kernel at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a progress metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued events. Cancelled events leave the
// queue immediately and are not counted.
func (e *Engine) Pending() int { return e.near + len(e.far) }

// PoolAllocated returns how many event structs the engine has ever
// allocated — the pool's high-water mark. In steady state (schedule, fire,
// cancel at a stable outstanding-event count) this stops growing: every
// operation is served from the free list.
func (e *Engine) PoolAllocated() uint64 { return e.alloced }

// get returns a recycled event or allocates a fresh one.
func (e *Engine) get() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	e.alloced++
	return &event{pos: unqueued}
}

// release clears an event's callback state and returns it to the free list.
// The generation bump invalidates every outstanding handle to it.
func (e *Engine) release(ev *event) {
	ev.h, ev.arg, ev.next = nil, nil, nil
	ev.pos = unqueued
	ev.gen++
	e.free = append(e.free, ev)
}

// less orders events by (when, seq): earlier cycle first, insertion order
// within a cycle.
func less(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// first returns the head of the earliest non-empty wheel bucket, or nil.
// Every wheel event is due in [now, now+64), so rotating the occupancy word
// right by now's slot puts the bucket due d cycles from now at bit d.
func (e *Engine) first() *event {
	if e.occ == 0 {
		return nil
	}
	d := bits.TrailingZeros64(bits.RotateLeft64(e.occ, -int(e.now&wheelMask)))
	return e.wheel[(e.now+Time(d))&wheelMask].head
}

// nextTime reports when the earliest queued event fires; ok is false when
// the queue is empty.
func (e *Engine) nextTime() (t Time, ok bool) {
	ev := e.first()
	if len(e.far) > 0 && (ev == nil || e.far[0].when < ev.when) {
		ev = e.far[0]
	}
	if ev == nil {
		return 0, false
	}
	return ev.when, true
}

// siftUp restores the heap property from index i toward the root. The
// element is held out and written once at its final position, so each level
// costs one pointer move instead of a swap.
func (e *Engine) siftUp(i int) {
	q := e.far
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].pos = int32(i)
		i = p
	}
	q[i] = ev
	ev.pos = int32(i)
}

// siftDown restores the heap property from index i toward the leaves,
// selecting the minimum of up to four children per level.
func (e *Engine) siftDown(i int) {
	q := e.far
	n := len(q)
	ev := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(q[j], q[m]) {
				m = j
			}
		}
		if !less(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].pos = int32(i)
		i = m
	}
	q[i] = ev
	ev.pos = int32(i)
}

// popFar removes and returns the far heap's root. The caller must release
// it.
func (e *Engine) popFar() *event {
	q := e.far
	min := q[0]
	n := len(q) - 1
	if n > 0 {
		q[0] = q[n]
		q[0].pos = 0
	}
	q[n] = nil
	e.far = q[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return min
}

// remove unlinks a queued event, from its bucket or the far heap, and
// recycles it. A bucket is walked from its head: nothing outside tests
// cancels an event, and buckets are short.
func (e *Engine) remove(ev *event) {
	if ev.pos == onWheel {
		s := ev.when & wheelMask
		b := &e.wheel[s]
		var prev *event
		for p := b.head; p != ev; p = p.next {
			prev = p
		}
		if prev == nil {
			b.head = ev.next
		} else {
			prev.next = ev.next
		}
		if b.tail == ev {
			b.tail = prev
		}
		if b.head == nil {
			e.occ &^= 1 << s
		}
		e.near--
		e.release(ev)
		return
	}
	q := e.far
	i := int(ev.pos)
	n := len(q) - 1
	if i != n {
		q[i] = q[n]
		q[i].pos = int32(i)
	}
	q[n] = nil
	e.far = q[:n]
	if i != n && n > 1 {
		e.siftDown(i)
		e.siftUp(int(q[i].pos))
	}
	e.release(ev)
}

// schedule is the common entry point for all four scheduling calls.
func (e *Engine) schedule(t Time, h Handler, arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.get()
	ev.when, ev.seq, ev.h, ev.arg = t, e.seq, h, arg
	e.seq++
	if t-e.now < wheelSlots {
		ev.pos = onWheel
		e.near++
		s := t & wheelMask
		if b := &e.wheel[s]; b.head == nil {
			b.head, b.tail = ev, ev
			e.occ |= 1 << s
		} else {
			b.tail.next, b.tail = ev, ev
		}
	} else {
		ev.pos = int32(len(e.far))
		e.far = append(e.far, ev)
		e.siftUp(len(e.far) - 1)
	}
	return Event{eng: e, p: ev, gen: ev.gen, when: t}
}

// At schedules fn to run at absolute cycle t. Scheduling in the past panics:
// that is always a model bug. The closure-based form allocates the closure
// at the caller; allocation-sensitive schedulers should use AtCall.
func (e *Engine) At(t Time, fn func()) Event {
	return e.schedule(t, closureHandler, fn)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) Event {
	return e.schedule(e.now+d, closureHandler, fn)
}

// AtCall schedules h(arg) at absolute cycle t. With a package-level handler
// and a pooled pointer argument this is allocation-free: the event comes
// from the engine's pool and a pointer stored in `any` does not allocate.
func (e *Engine) AtCall(t Time, h Handler, arg any) Event {
	return e.schedule(t, h, arg)
}

// AfterCall schedules h(arg) to run d cycles from now.
func (e *Engine) AfterCall(d Time, h Handler, arg any) Event {
	return e.schedule(e.now+d, h, arg)
}

// Stop makes Run (and Step, and RunUntil) return after the current event
// completes. Stopping is sticky: the engine refuses further work until
// Resume is called, so a stopped engine can be inspected without racing
// against pending events. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the engine is stopped.
func (e *Engine) Stopped() bool { return e.stopped }

// Resume clears a previous Stop, allowing Step/Run/RunUntil to execute
// events again. Resuming a running engine is a no-op.
func (e *Engine) Resume() { e.stopped = false }

// step fires the earliest queued event if it is due no later than limit,
// and reports whether it fired one. One lookup finds the earliest bucket,
// whose head is compared with the far heap's root.
func (e *Engine) step(limit Time) bool {
	ev := e.first()
	if len(e.far) > 0 && (ev == nil || less(e.far[0], ev)) {
		if e.far[0].when > limit {
			return false
		}
		ev = e.popFar()
	} else {
		if ev == nil || ev.when > limit {
			return false
		}
		s := ev.when & wheelMask
		b := &e.wheel[s]
		if b.head = ev.next; b.head == nil {
			b.tail = nil
			e.occ &^= 1 << s
		}
		e.near--
	}
	e.now = ev.when
	e.fired++
	// Extract the callback and recycle the event before invoking it: the
	// handler may immediately schedule new work into the freed slot, and
	// clearing h/arg here guarantees fired events never pin captured state.
	h, arg := ev.h, ev.arg
	e.release(ev)
	h(arg)
	return true
}

// Step executes the single earliest pending event. It reports false when the
// queue is empty (simulation quiesced) or the engine was stopped.
func (e *Engine) Step() bool { return !e.stopped && e.step(^Time(0)) }

// Run executes events until the queue drains or Stop is called. It returns
// the final simulated time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with firing time <= deadline. It reports whether
// the queue drained (true) or the deadline was reached with work pending
// (false). Reaching the deadline with pending events usually indicates a
// deadlock or runaway workload in tests.
func (e *Engine) RunUntil(deadline Time) bool {
	for !e.stopped && e.step(deadline) {
	}
	return e.Pending() == 0
}

// RunUntilCheck is RunUntil with a periodic interrupt poll: after every
// `every` fired events it calls interrupt, and stops between events when it
// returns true. This is how caller cancellation (context.Context in
// machine.RunCtx) reaches the single-threaded kernel without putting an
// atomic load on the per-event hot path. every < 1 is treated as 1.
// interrupted is true only when the poll stopped the run; drained keeps
// RunUntil's meaning and is always false when interrupted.
func (e *Engine) RunUntilCheck(deadline Time, every uint64, interrupt func() bool) (drained, interrupted bool) {
	if every < 1 {
		every = 1
	}
	var n uint64
	for !e.stopped && e.step(deadline) {
		if n++; n >= every {
			n = 0
			if interrupt() {
				return false, true
			}
		}
	}
	return e.Pending() == 0, false
}
