// Conservative parallel extension of the event kernel. A ShardGroup runs K
// independent Engines — one per machine shard — in lockstep bounded time
// windows, in the classic conservative-synchronization (CMB) style:
//
//   - Every cross-shard interaction is declared to the group with Post and
//     carries a minimum latency, the *lookahead* L (for the NoC model this
//     is the per-hop router+link latency: a message physically cannot cross
//     a shard boundary faster than one hop).
//   - The group repeatedly picks the globally earliest pending work time T
//     (over all engine queues and undelivered cross-shard mail), delivers
//     the mail into destination engines, and lets all shards execute the
//     window [T, T+L-1] in parallel.
//   - An event executing at time t >= T can only produce cross-shard work
//     at t+L > T+L-1, i.e. strictly beyond the window — so no shard can
//     receive an event timestamped in its past, no matter how the
//     goroutines interleave. (internal/verify's "shard-window" model checks
//     exactly this invariant and refutes the variant that skips the drain.)
//
// Determinism: each engine is only ever advanced by one goroutine at a
// time, windows are separated by barriers, and mailed events are injected
// in the total order (delivery time, source shard, per-source sequence), so
// a sharded run is a pure function of (configuration, shard count). It is
// NOT guaranteed to be event-order identical to the serial kernel: the
// serial kernel breaks same-cycle ties by global scheduling order, which a
// parallel run cannot observe. See DESIGN.md §14 for the pinned divergence.
package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"
)

// crossMsg is one cross-shard event in flight: h(arg) must run on the
// destination engine at absolute cycle when.
type crossMsg struct {
	when Time
	h    Handler
	arg  any
}

// crossRef is a mailed event plus its deterministic injection key.
type crossRef struct {
	when Time
	src  int32 // source shard
	idx  int32 // per-(src,dst) send sequence within the window
	h    Handler
	arg  any
}

// ShardPanic wraps a panic raised by a component while a shard executed a
// window. The group re-raises it on the coordinating goroutine so the usual
// machine-level recovery sees one structured failure.
type ShardPanic struct {
	Shard int
	Value any
	Stack string
}

func (p *ShardPanic) String() string {
	return fmt.Sprintf("shard %d panicked: %v", p.Shard, p.Value)
}

// ShardGroup coordinates K engines advancing in conservative time windows.
// Construct with NewShardGroup, wire components to the per-shard engines,
// declare every cross-shard interaction through Post, then drive the whole
// group with RunUntilCheck. The zero value is not usable.
//
// Mailboxes are double-buffered: during a window each source shard appends
// to the "fill" side only; at the window barrier — all shards parked — the
// coordinator flips the sides, so destinations drain the quiescent side
// while sources append to the other. No lock is ever taken on the simulated
// path; the epoch/done atomics of the window barrier carry all the
// necessary happens-before edges.
type ShardGroup struct {
	engines   []*Engine
	lookahead Time

	// mail[f][src*K+dst] holds cross-shard events sent by src to dst.
	// Side g.fill is append-only for the current window; side 1-fill is
	// drained by destinations at the window start and left empty.
	mail [2][][]crossMsg
	fill int

	// postedBy[src] counts messages ever mailed by src (src-owned slot).
	postedBy []uint64

	// scratch[dst] is shard dst's reusable injection sort buffer.
	scratch [][]crossRef

	// Window barrier: the coordinator publishes windowEnd and bumps epoch
	// to release the workers; each worker executes its shard's window and
	// increments done.
	windowEnd Time
	now       Time
	epoch     atomic.Uint64
	done      atomic.Int64
	shutdown  atomic.Bool

	panics  []*ShardPanic // one slot per shard, filled on worker panic
	windows uint64        // windows executed (coordination metric)
	running bool          // a RunUntilCheck is in progress
}

// NewShardGroup builds K empty engines coupled with lookahead L (in
// cycles). Every cross-shard Post must carry at least L cycles of latency;
// L therefore also bounds the window width. shards and lookahead must be
// >= 1.
func NewShardGroup(shards int, lookahead Time) *ShardGroup {
	if shards < 1 {
		panic(fmt.Sprintf("sim: shard group needs >= 1 shards, got %d", shards))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: shard lookahead must be >= 1 cycle, got %d", lookahead))
	}
	g := &ShardGroup{
		engines:   make([]*Engine, shards),
		lookahead: lookahead,
		postedBy:  make([]uint64, shards),
		scratch:   make([][]crossRef, shards),
		panics:    make([]*ShardPanic, shards),
	}
	g.mail[0] = make([][]crossMsg, shards*shards)
	g.mail[1] = make([][]crossMsg, shards*shards)
	for i := range g.engines {
		g.engines[i] = NewEngine()
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Engines returns all shard engines in shard order.
func (g *ShardGroup) Engines() []*Engine { return g.engines }

// Lookahead returns the group's coupling latency in cycles.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Windows returns how many time windows the group has executed — the
// coordination-overhead metric the bench module reports as sim.windows.
func (g *ShardGroup) Windows() uint64 { return g.windows }

// Posted returns how many cross-shard events have been mailed.
func (g *ShardGroup) Posted() uint64 {
	var n uint64
	for _, v := range g.postedBy {
		n += v
	}
	return n
}

// Fired sums the event counts of all shards.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Fired()
	}
	return n
}

// Now returns the current window start — the conservative global clock. All
// shard clocks are within [Now, Now+lookahead-1] while a window executes.
// Intended for diagnostics; component code uses its own engine's clock.
func (g *ShardGroup) Now() Time { return g.now }

// MaxNow returns the latest shard-local clock — the machine's completion
// cycle once the group has drained. Only meaningful between windows.
func (g *ShardGroup) MaxNow() Time {
	var t Time
	for _, e := range g.engines {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Post schedules h(arg) at absolute cycle when on shard dst's engine. It
// must be called from code executing on shard src's engine (i.e. inside an
// event of the current window). Cross-shard sends must respect the
// lookahead: when < src.now + lookahead is a model bug and panics, because
// the destination may already have executed past when. Same-shard posts
// degenerate to a local AtCall.
func (g *ShardGroup) Post(src, dst int, when Time, h Handler, arg any) {
	if src == dst {
		g.engines[src].AtCall(when, h, arg)
		return
	}
	if now := g.engines[src].now; when < now+g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard post %d->%d at %d violates lookahead %d (src now %d)",
			src, dst, when, g.lookahead, now))
	}
	k := src*len(g.engines) + dst
	g.mail[g.fill][k] = append(g.mail[g.fill][k], crossMsg{when: when, h: h, arg: arg})
	g.postedBy[src]++
}

// inject drains every quiescent-side mailbox destined to shard dst into its
// engine, in the deterministic total order (when, source shard, per-source
// sequence). Runs on shard dst's goroutine at the start of a window.
func (g *ShardGroup) inject(dst int) {
	k := len(g.engines)
	side := g.mail[g.fill^1]
	buf := g.scratch[dst][:0]
	for src := 0; src < k; src++ {
		box := side[src*k+dst]
		if len(box) == 0 {
			continue
		}
		for i, m := range box {
			buf = append(buf, crossRef{when: m.when, src: int32(src), idx: int32(i), h: m.h, arg: m.arg})
			box[i] = crossMsg{} // drop references so pooled args never pin
		}
		side[src*k+dst] = box[:0]
	}
	// The key is unique, so the unstable sort has one result; unlike
	// sort.Slice, it allocates nothing.
	slices.SortFunc(buf, func(a, b crossRef) int {
		if c := cmp.Compare(a.when, b.when); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for i := range buf {
		g.engines[dst].AtCall(buf[i].when, buf[i].h, buf[i].arg)
		buf[i] = crossRef{}
	}
	g.scratch[dst] = buf[:0]
}

// runWindow executes shard s's slice of the current window: deliver inbound
// mail, then run every local event up to (and including) the published
// window end.
func (g *ShardGroup) runWindow(s int) {
	defer func() {
		if r := recover(); r != nil {
			g.panics[s] = &ShardPanic{Shard: s, Value: r, Stack: string(debug.Stack())}
		}
	}()
	g.inject(s)
	g.engines[s].RunUntil(g.windowEnd)
}

// worker is the long-lived goroutine for shard s (s >= 1; shard 0 runs on
// the coordinating goroutine). It waits for each epoch bump with a bounded
// spin that degrades to yielding and then sleeping, so an idle or uneven
// group does not starve the shards that still have work — on a host with
// no spare hardware threads the spin phase is skipped entirely.
func (g *ShardGroup) worker(s int, spin int, seen uint64) {
	for {
		for i := 0; ; i++ {
			if e := g.epoch.Load(); e != seen {
				seen = e
				break
			}
			switch {
			case i < spin:
				// hot spin
			case i < spin+4096:
				runtime.Gosched()
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
		if g.shutdown.Load() {
			g.done.Add(1)
			return
		}
		g.runWindow(s)
		g.done.Add(1)
	}
}

// await blocks until all n workers reported the current window done, with
// the same spin/yield/sleep ladder as worker.
func (g *ShardGroup) await(n int64, spin int) {
	for i := 0; ; i++ {
		if g.done.Load() >= n {
			return
		}
		switch {
		case i < spin:
		case i < spin+4096:
			runtime.Gosched()
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// next returns the earliest pending work time across every engine queue and
// both mailbox sides. ok is false when the whole group has quiesced. Only
// called between windows, all workers parked.
func (g *ShardGroup) next() (Time, bool) {
	var t Time
	ok := false
	for _, e := range g.engines {
		if w, pending := e.nextTime(); pending && (!ok || w < t) {
			t, ok = w, true
		}
	}
	for side := 0; side < 2; side++ {
		for _, box := range g.mail[side] {
			for i := range box {
				if w := box[i].when; !ok || w < t {
					t, ok = w, true
				}
			}
		}
	}
	return t, ok
}

// release resets the done count, flips the mailbox sides, and wakes the
// workers for one window (or for shutdown).
func (g *ShardGroup) release() {
	g.done.Store(0)
	g.fill ^= 1
	g.epoch.Add(1)
}

// RunUntilCheck executes windows until the group drains, the deadline is
// passed, or the interrupt poll asks to stop. interrupt (may be nil) is
// polled every `every` windows; drained and interrupted mirror
// Engine.RunUntilCheck. A component panic inside any shard is re-raised
// here as *ShardPanic.
//
// The call spawns one goroutine per extra shard and joins all of them
// before returning — also on interrupt, deadline, and component panic — so
// a cancelled sharded run leaks nothing.
func (g *ShardGroup) RunUntilCheck(deadline Time, every uint64, interrupt func() bool) (drained, interrupted bool) {
	if g.running {
		panic("sim: ShardGroup is already running")
	}
	g.running = true
	defer func() { g.running = false }()
	if every < 1 {
		every = 1
	}
	k := len(g.engines)

	// With no spare hardware threads, spinning only steals cycles from the
	// shard we are waiting for — go straight to cooperative yielding.
	spin := 128
	if runtime.GOMAXPROCS(0) <= k {
		spin = 0
	}

	if k > 1 {
		g.shutdown.Store(false)
		// The epoch baseline must be captured BEFORE spawning: on a busy
		// host a worker may not run until after the coordinator released
		// the first window, and reading the epoch itself then would make
		// it wait for a bump that already happened.
		base := g.epoch.Load()
		for s := 1; s < k; s++ {
			go g.worker(s, spin, base)
		}
		// Join the workers on every exit path, including a re-raised
		// ShardPanic: release-with-shutdown wakes them one last time. The
		// extra fill flip in release is harmless at shutdown.
		defer func() {
			g.shutdown.Store(true)
			g.release()
			g.await(int64(k-1), spin)
		}()
	}

	var sinceCheck uint64
	for {
		t, ok := g.next()
		if !ok {
			return true, false
		}
		if t > deadline {
			return false, false
		}
		g.now = t
		g.windowEnd = t + g.lookahead - 1
		if g.windowEnd > deadline {
			// Clamp so a deadline mid-window stops every shard at the same
			// cycle (RunUntil's bound is inclusive).
			g.windowEnd = deadline
		}
		g.windows++
		if k > 1 {
			g.release()
			g.runWindow(0)
			g.await(int64(k-1), spin)
		} else {
			g.fill ^= 1
			g.runWindow(0)
		}
		if p := g.firstPanic(); p != nil {
			panic(p)
		}
		if sinceCheck++; sinceCheck >= every {
			sinceCheck = 0
			if interrupt != nil && interrupt() {
				return false, true
			}
		}
	}
}

// firstPanic returns the lowest-shard recorded panic, if any.
func (g *ShardGroup) firstPanic() *ShardPanic {
	for _, p := range g.panics {
		if p != nil {
			return p
		}
	}
	return nil
}
