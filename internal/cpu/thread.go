package cpu

import (
	"fmt"

	"misar/internal/sim"
)

type parkKind uint8

const (
	parkedNone parkKind = iota
	parkedResult
	parkedReissue
	parkedPoll // a Poll's load returned parkVal; Resume tests it
)

// Thread is one simulated software thread: a goroutine exchanging requests
// and results with the event kernel through a synchronous handoff. One
// handoff carries a batch: the operations the thread posted since the last
// one, then (unless the batch only flushes them) the request that needs a
// result. The thread writes the batch and the kernel reads it, each only
// while the other waits on the handoff channels, which order the two.
type Thread struct {
	id   int
	core *Core
	body func(Env)

	toThread chan uint64   // the batch's last result; closed by Kill
	toKernel chan struct{} // a batch is ready in ops; closed when the body ends
	ops      []threadReq
	next     int    // index in ops of the operation the core issues next
	handoffs uint64 // batches sent

	started bool
	done    bool
	err     any // recovered panic from the thread body, if any

	wantSuspend bool
	parked      parkKind
	parkVal     uint64
	reissue     threadReq // also holds the Poll the thread waits in
	onParked    func()    // scheduler notification, may be nil
	onDone      func()    // completion notification, may be nil
}

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

// Done reports whether the thread's body has returned.
func (t *Thread) Done() bool { return t.done }

// Parked reports whether the thread is currently suspended.
func (t *Thread) Parked() bool { return t.parked != parkedNone }

// Err returns the recovered panic value if the thread body panicked.
func (t *Thread) Err() any { return t.err }

// CoreID returns the id of the core the thread last ran on, or -1 before it
// was first scheduled. Used by the liveness watchdog to attribute blocked
// threads to tiles.
func (t *Thread) CoreID() int {
	if t.core == nil {
		return -1
	}
	return t.core.id
}

// Complex manages the machine's cores and threads.
type Complex struct {
	engine  *sim.Engine
	cores   []*Core
	threads []*Thread
	running int
}

// NewComplex groups cores into a schedulable unit.
func NewComplex(engine *sim.Engine, cores []*Core) *Complex {
	return &Complex{engine: engine, cores: cores}
}

// Core returns core i.
func (x *Complex) Core(i int) *Core { return x.cores[i] }

// Threads returns all spawned threads.
func (x *Complex) Threads() []*Thread { return x.threads }

// Running reports how many threads have started but not finished.
func (x *Complex) Running() int { return x.running }

// Spawn creates (but does not start) a thread.
func (x *Complex) Spawn(id int, body func(Env)) *Thread {
	t := &Thread{
		id:       id,
		body:     body,
		toThread: make(chan uint64),
		toKernel: make(chan struct{}),
	}
	x.threads = append(x.threads, t)
	return t
}

// Start launches the thread on a core at simulated time `at`. The thread's
// body runs as a goroutine; the kernel blocks whenever the thread is
// executing Go code, preserving determinism.
func (x *Complex) Start(t *Thread, core int, at sim.Time) {
	if t.started {
		panic(fmt.Sprintf("cpu: thread %d started twice", t.id))
	}
	t.started = true
	x.running++
	x.engine.At(at, func() {
		c := x.cores[core]
		c.adopt(t)
		t.onDone = func() { x.running-- }
		go func() {
			defer func() {
				r := recover()
				if _, killed := r.(threadKilled); !killed {
					// The body returned or panicked: its posted operations
					// still commit, so it ends where its last one completes.
					if len(t.ops) > 0 {
						t.send()
					}
					if r != nil {
						t.err = r
					}
				}
				close(t.toKernel)
			}()
			t.body(env{t})
		}()
		c.await()
	})
}

// send hands the batch in ops to the kernel and waits for the result of its
// last operation; ok is false when the machine was torn down meanwhile.
func (t *Thread) send() (v uint64, ok bool) {
	t.handoffs++
	t.toKernel <- struct{}{}
	v, ok = <-t.toThread
	t.ops = t.ops[:0]
	return v, ok
}

// finish is called by the core when the thread's request channel closes.
func (t *Thread) finish() {
	t.done = true
	if t.onDone != nil {
		t.onDone()
	}
}

// park suspends the thread at an operation boundary: the pending result (or
// instruction re-issue) is delivered when the thread is resumed. The core is
// context-switched and freed.
func (t *Thread) park(kind parkKind, val uint64) {
	t.parked = kind
	t.parkVal = val
	t.wantSuspend = false
	c := t.core
	c.stats.Suspends++
	c.contextSwitch()
	c.cur = nil
	if t.onParked != nil {
		t.onParked()
	}
}

// Suspend asks the OS shim to take the thread off its core. The suspension
// takes effect at the thread's next operation boundary; if a LOCK, BARRIER,
// or COND_WAIT is outstanding, a SUSPEND request is sent to the MSA so the
// thread is dequeued or the operation aborted (paper §4.1.2/§4.2.2/§4.3.2).
// onParked (may be nil) fires when the thread has actually left the core.
func (x *Complex) Suspend(t *Thread, onParked func()) {
	if t.done || t.parked != parkedNone {
		if onParked != nil {
			onParked()
		}
		return
	}
	t.onParked = onParked
	t.wantSuspend = true
	c := t.core
	if o := c.out; o != nil && o.t == t && !o.nacked && c.cfg.Mode == ModeMSA {
		c.sendSuspend(o)
	}
}

// Resume places a parked thread back onto a core (possibly a different one —
// migration) and continues it.
func (x *Complex) Resume(t *Thread, core int) {
	if t.parked == parkedNone {
		panic(fmt.Sprintf("cpu: resuming thread %d that is not parked", t.id))
	}
	c := x.cores[core]
	kind := t.parked
	t.parked = parkedNone
	if t.core != nil && t.core.id != core {
		c.stats.Migrations++
	}
	c.stats.Resumes++
	c.adopt(t)
	switch kind {
	case parkedResult:
		c.resume(t, t.parkVal)
	case parkedReissue:
		c.dispatch(t, t.reissue)
	case parkedPoll:
		c.pollLoaded(t, t.parkVal)
	}
}

// Kill tears down all unfinished threads (used when a run is abandoned).
func (x *Complex) Kill() {
	for _, t := range x.threads {
		if t.started && !t.done {
			close(t.toThread)
		}
	}
}
