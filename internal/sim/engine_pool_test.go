package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The event pool must recycle storage: after an event fires, the next
// scheduling reuses its slot instead of allocating.
func TestPoolReuseAfterFire(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.PoolAllocated() == 0 {
		t.Fatal("pool never allocated")
	}
	high := e.PoolAllocated()
	// Steady-state churn: schedule/fire repeatedly at the same depth.
	for i := 0; i < 10000; i++ {
		e.After(1, func() {})
		e.Step()
	}
	if got := e.PoolAllocated(); got != high {
		t.Fatalf("steady-state churn grew the pool: %d -> %d", high, got)
	}
}

// Cancelled events must return to the pool immediately, not only when their
// firing time is reached, whether they wait in a wheel bucket or in the far
// heap.
func TestPoolReuseAfterCancel(t *testing.T) {
	for _, ahead := range []Time{0, 5, wheelSlots - 1, wheelSlots, 1_000_000} {
		e := NewEngine()
		warm := e.At(1, func() {})
		warm.Cancel()
		high := e.PoolAllocated()
		for i := 0; i < 10000; i++ {
			// A timer cancelled long before it would fire: with immediate
			// recycling the pool never grows past the warm-up mark.
			ev := e.At(ahead+Time(i%3), func() {})
			ev.Cancel()
		}
		if got := e.PoolAllocated(); got != high {
			t.Fatalf("ahead %d: cancel churn grew the pool: %d -> %d", ahead, high, got)
		}
		if e.Pending() != 0 {
			t.Fatalf("ahead %d: Pending = %d after cancelling everything", ahead, e.Pending())
		}
		checkQueueInvariant(t, e)
	}
}

// A handle to a fired event must not affect the pooled slot's next tenant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Step() // fires; slot recycled
	fired := false
	fresh := e.At(2, func() { fired = true })
	stale.Cancel() // stale generation: must be a no-op
	if fresh.Pending() != true {
		t.Fatal("stale Cancel() cancelled the slot's new tenant")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// Cancel must also be generation-safe when the slot was recycled via Cancel
// rather than via firing.
func TestStaleHandleAfterCancelRecycle(t *testing.T) {
	e := NewEngine()
	first := e.At(10, func() { t.Error("cancelled event fired") })
	first.Cancel()
	ok := false
	second := e.At(10, func() { ok = true })
	first.Cancel() // stale; must not touch `second`, which reuses the slot
	if !second.Pending() {
		t.Fatal("stale handle cancelled the recycled slot's new event")
	}
	e.Run()
	if !ok {
		t.Fatal("live event did not fire")
	}
}

// refEvent / refModel: a naive sorted-slice reference implementation of the
// kernel's contract, the oracle for fuzzing the wheel and far heap.
type refEvent struct {
	when Time
	seq  uint64
	id   int
	done bool // fired or cancelled
}

type refModel struct {
	now    Time
	seq    uint64
	events []*refEvent // queued, possibly with done ones not yet pruned
	fired  []int
}

func (m *refModel) at(t Time, id int) *refEvent {
	ev := &refEvent{when: t, seq: m.seq, id: id}
	m.seq++
	m.events = append(m.events, ev)
	return ev
}

// head prunes done events and returns the earliest queued one, or nil.
func (m *refModel) head() *refEvent {
	live := m.events[:0]
	for _, ev := range m.events {
		if !ev.done {
			live = append(live, ev)
		}
	}
	m.events = live
	if len(m.events) == 0 {
		return nil
	}
	sort.Slice(m.events, func(i, j int) bool {
		if m.events[i].when != m.events[j].when {
			return m.events[i].when < m.events[j].when
		}
		return m.events[i].seq < m.events[j].seq
	})
	return m.events[0]
}

// step fires the earliest queued event no later than limit, reporting
// whether there was one.
func (m *refModel) step(limit Time) bool {
	ev := m.head()
	if ev == nil || ev.when > limit {
		return false
	}
	ev.done = true
	m.now = ev.when
	m.fired = append(m.fired, ev.id)
	return true
}

// burstDelays are the delays a burst op schedules at: same-cycle events on
// either side of the wheel's span.
var burstDelays = [8]Time{0, 1, 2, wheelSlots - 2, wheelSlots - 1, wheelSlots, wheelSlots + 1, 2 * wheelSlots}

// runScript drives an engine and the reference model through one script of
// operations, two bytes each (op, arg), and fails on the first difference
// in firing order, clock, Pending, a handle's Pending or RunUntil's result,
// or on a broken queue invariant:
//
//	op%8 0-3  schedule one event arg cycles ahead (0 to 4×64-1)
//	     4    schedule arg%8+2 events for one cycle, burstDelays[arg/8%8] ahead
//	     5    cancel the arg-th newest handle, which may be fired or cancelled
//	     6    step
//	     7    RunUntil(now+arg)
func runScript(t testing.TB, script []byte) {
	t.Helper()
	e := NewEngine()
	ref := &refModel{}
	var got []int
	var handles []Event
	var refs []*refEvent
	schedule := func(d Time) {
		id := len(handles)
		handles = append(handles, e.After(d, func() { got = append(got, id) }))
		refs = append(refs, ref.at(ref.now+d, id))
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, script[i+1]
		switch {
		case op < 4:
			schedule(Time(arg))
		case op == 4:
			d := burstDelays[arg/8%8]
			for n := int(arg%8) + 2; n > 0; n-- {
				schedule(d)
			}
		case op == 5:
			if len(handles) > 0 {
				j := len(handles) - 1 - int(arg)%len(handles)
				handles[j].Cancel()
				refs[j].done = true
			}
		case op == 6:
			want := ref.step(^Time(0))
			if e.Step() != want {
				t.Fatalf("op %d: Step = %v, reference %v", i/2, !want, want)
			}
		default:
			deadline := e.Now() + Time(arg)
			for ref.step(deadline) {
			}
			if drained := e.RunUntil(deadline); drained != (ref.head() == nil) {
				t.Fatalf("op %d: RunUntil(%d) drained = %v, reference %v", i/2, deadline, drained, !drained)
			}
		}
		if len(got) != len(ref.fired) {
			t.Fatalf("op %d: engine fired %d events, reference %d", i/2, len(got), len(ref.fired))
		}
		for j := range got {
			if got[j] != ref.fired[j] {
				t.Fatalf("op %d: firing %d is event %d, reference %d", i/2, j, got[j], ref.fired[j])
			}
		}
		if e.Now() != ref.now {
			t.Fatalf("op %d: clock %d, reference %d", i/2, e.Now(), ref.now)
		}
		checkQueueInvariant(t, e)
		live := 0
		for j, h := range handles {
			if h.Pending() == refs[j].done {
				t.Fatalf("op %d: handle %d Pending = %v, reference done = %v", i/2, j, h.Pending(), refs[j].done)
			}
			if !refs[j].done {
				live++
			}
		}
		if e.Pending() != live {
			t.Fatalf("op %d: Pending = %d, reference %d", i/2, e.Pending(), live)
		}
	}
}

// Fuzz the queue against the reference model with random scripts. Delays
// reach four wheel spans, with extra weight on the wheel's edge (63 and 64
// cycles) and on same-cycle bursts, so both the wheel and the far heap, and
// their tie at one cycle, are exercised; cancels hit heads, middles and
// tails of buckets.
func TestHeapFuzzAgainstReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 0, 2*2000)
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(20); {
			case r < 9: // schedule
				var d int
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					d = rng.Intn(4 * wheelSlots)
				case 4:
					d = wheelSlots - 1
				case 5:
					d = wheelSlots
				case 6:
					d = 0
				default:
					d = rng.Intn(8)
				}
				script = append(script, 0, byte(d))
			case r < 11:
				script = append(script, 4, byte(rng.Intn(256)))
			case r < 15:
				script = append(script, 5, byte(rng.Intn(256)))
			case r < 19:
				script = append(script, 6, 0)
			default:
				script = append(script, 7, byte(rng.Intn(256)))
			}
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runScript(t, script) })
	}
}

// FuzzEngineAgainstReference checks byte-decoded scripts (see runScript)
// against the reference model. go test runs the seeds below; CI also runs
// the fuzzer for a bounded time.
func FuzzEngineAgainstReference(f *testing.F) {
	f.Add([]byte{0, 100, 0, 50, 6, 0, 0, 50, 6, 0, 6, 0})      // far, then near, for one cycle
	f.Add([]byte{4, 7, 5, 0, 0, 0, 4, 36, 5, 3, 7, 255})       // bursts, tail and middle cancels
	f.Add([]byte{0, 63, 0, 64, 0, 65, 0, 127, 0, 128, 7, 200}) // the wheel's edges
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runScript(t, script)
	})
}

// checkQueueInvariant verifies the wheel, the far heap and their counts:
// a slot's occupancy bit is set exactly when its bucket is non-empty; a
// bucket holds events of one cycle that maps to its slot and lies in
// [now, now+64), in rising seq order, and tail is its last node; the far
// heap is ordered and its pos indices are right; the counts add up to
// Pending.
func checkQueueInvariant(t testing.TB, e *Engine) {
	t.Helper()
	near := 0
	for s := range e.wheel {
		b := &e.wheel[s]
		if occupied := e.occ&(1<<s) != 0; occupied != (b.head != nil) {
			t.Fatalf("slot %d: occupancy bit %v, bucket non-empty %v", s, occupied, b.head != nil)
		}
		var last *event
		for ev := b.head; ev != nil; ev = ev.next {
			if near++; near > int(e.alloced) {
				t.Fatalf("slot %d: bucket list has a cycle", s)
			}
			if ev.pos != onWheel {
				t.Fatalf("slot %d: event (%d,%d) has pos %d", s, ev.when, ev.seq, ev.pos)
			}
			if int(ev.when&wheelMask) != s || ev.when < e.now || ev.when-e.now >= wheelSlots {
				t.Fatalf("slot %d: event at %d with now %d", s, ev.when, e.now)
			}
			if last != nil && (ev.when != last.when || ev.seq <= last.seq) {
				t.Fatalf("slot %d: (%d,%d) follows (%d,%d)", s, ev.when, ev.seq, last.when, last.seq)
			}
			last = ev
		}
		if b.tail != last {
			t.Fatalf("slot %d: tail is not the bucket's last event", s)
		}
	}
	if near != e.near {
		t.Fatalf("wheel holds %d events, count says %d", near, e.near)
	}
	for i, ev := range e.far {
		if int(ev.pos) != i {
			t.Fatalf("far[%d].pos = %d", i, ev.pos)
		}
		if ev.next != nil || ev.when < e.now {
			t.Fatalf("far[%d] at %d (now %d) has a bucket link %v", i, ev.when, e.now, ev.next != nil)
		}
		if i > 0 {
			p := (i - 1) >> 2
			if less(ev, e.far[p]) {
				t.Fatalf("heap violation at %d: (%d,%d) < parent (%d,%d)",
					i, ev.when, ev.seq, e.far[p].when, e.far[p].seq)
			}
		}
	}
	if near+len(e.far) != e.Pending() {
		t.Fatalf("wheel %d + far %d != Pending %d", near, len(e.far), e.Pending())
	}
}

// A far event and a later-scheduled wheel event for the same cycle fire in
// scheduling order, although the wheel's bucket holds an event for that
// cycle when it comes due.
func TestEngineFarThenNearSameCycle(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(100, func() { order = append(order, "far") })
	e.At(50, func() {
		e.At(100, func() { order = append(order, "near") })
		if len(e.far) != 1 || e.near != 1 {
			t.Errorf("far %d, wheel %d; want one event in each", len(e.far), e.near)
		}
	})
	e.Run()
	if len(order) != 2 || order[0] != "far" || order[1] != "near" {
		t.Fatalf("order = %v, want [far near]", order)
	}
}

// Cancelling a bucket's head, middle and tail keeps the rest in FIFO order,
// and an event scheduled into that cycle after the tail was cancelled goes
// last.
func TestEngineBucketCancelKeepsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	var hs []Event
	for i := 0; i < 7; i++ {
		i := i
		hs = append(hs, e.At(10, func() { order = append(order, i) }))
	}
	for _, i := range []int{6, 0, 3} {
		hs[i].Cancel()
		checkQueueInvariant(t, e)
	}
	e.At(10, func() { order = append(order, 7) })
	checkQueueInvariant(t, e)
	e.Run()
	want := []int{1, 2, 4, 5, 7}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// Determinism: the (when, seq) tie-break must survive pool recycling — an
// event's firing order depends only on its scheduling order, never on which
// pooled slot it landed in.
func TestPooledTieBreakDeterminism(t *testing.T) {
	run := func(churn int) []int {
		e := NewEngine()
		// Perturb the pool's slot assignment with unrelated churn first.
		for i := 0; i < churn; i++ {
			ev := e.At(Time(1+i%7), func() {})
			if i%3 == 0 {
				ev.Cancel()
			}
		}
		e.Run()
		base := e.Now()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.At(base+Time(10+(i%5)), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	want := run(0)
	for _, churn := range []int{1, 17, 256, 999} {
		got := run(churn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("churn %d changed firing order at %d: got %d want %d",
					churn, i, got[i], want[i])
			}
		}
	}
}

// Stop is sticky until Resume: a stopped engine refuses Step/Run/RunUntil,
// and Resume re-enables them with the queue intact.
func TestEngineStopResumeContract(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(1, func() { order = append(order, 1); e.Stop() })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 1 {
		t.Fatalf("Stop did not halt Run: %v", order)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	if e.Step() {
		t.Fatal("Step executed on a stopped engine")
	}
	if e.Run() != 1 {
		t.Fatal("Run advanced a stopped engine")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the un-fired event to stay queued", e.Pending())
	}
	e.Resume()
	if e.Stopped() {
		t.Fatal("Stopped() = true after Resume")
	}
	e.Run()
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("Resume did not continue the queue: %v", order)
	}
	e.Resume() // resuming a running engine is a no-op
}

// A fired or cancelled handle keeps reporting its scheduling time.
func TestEventWhenSurvivesRecycle(t *testing.T) {
	e := NewEngine()
	a := e.At(7, func() {})
	b := e.At(9, func() {})
	b.Cancel()
	e.Run()
	if a.When() != 7 || b.When() != 9 {
		t.Fatalf("When after recycle: a=%d b=%d, want 7, 9", a.When(), b.When())
	}
	if a.Pending() || b.Pending() {
		t.Fatal("completed handles still report Pending")
	}
}

func nopCall(any) {}

// newChurnEngine returns an engine whose pool is warm.
func newChurnEngine() *Engine {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.AtCall(Time(i), nopCall, nil)
	}
	e.Run()
	return e
}

// churn runs n iterations of the kernel's steady-state loop: two schedules,
// one cancel, two fires, which exercise bucket append, unlink and pop against the
// free list.
func churn(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.AfterCall(3, nopCall, nil)
		dead := e.AfterCall(5, nopCall, nil)
		e.AfterCall(1, nopCall, nil)
		dead.Cancel()
		e.Step()
		e.Step()
	}
}

// The kernel's contract: every event comes from the pool, and neither the
// closure-free AtCall path nor Cancel allocates.
func TestEngineChurnZeroAllocs(t *testing.T) {
	e := newChurnEngine()
	if allocs := testing.AllocsPerRun(100, func() { churn(e, 10) }); allocs != 0 {
		t.Fatalf("10 iterations of engine churn allocate %.2f times, want 0", allocs)
	}
}

// BenchmarkEngineChurn times the loop TestEngineChurnZeroAllocs holds to 0
// allocs/op.
func BenchmarkEngineChurn(b *testing.B) {
	e := newChurnEngine()
	b.ReportAllocs()
	b.ResetTimer()
	churn(e, b.N)
}

// BenchmarkEngineChurnClosure times the closure-based After/At entry points
// with one queued event. func() {} captures nothing, so the compiler makes it
// a static function value: the loop allocates nothing and measures the
// wrapper, not a per-event closure allocation.
func BenchmarkEngineChurnClosure(b *testing.B) {
	e := NewEngine()
	e.At(0, func() {})
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}
