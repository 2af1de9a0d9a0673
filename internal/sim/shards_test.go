package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// shardTracer records (shard, when, tag) tuples, each shard appending only
// to its own lane so tracing itself is race-free.
type shardTracer struct {
	lanes [][]traceEntry
}

type traceEntry struct {
	when Time
	tag  int
}

func newShardTracer(shards int) *shardTracer {
	return &shardTracer{lanes: make([][]traceEntry, shards)}
}

func (tr *shardTracer) record(shard int, when Time, tag int) {
	tr.lanes[shard] = append(tr.lanes[shard], traceEntry{when, tag})
}

// pingPong wires a deterministic K-shard token-passing workload: `tokens`
// tokens start on shard 0 and each hop to the next shard every `hop`
// cycles (hop >= lookahead), for `hops` total hops.
func pingPong(g *ShardGroup, tr *shardTracer, tokens, hops int, hop Time) {
	k := g.Shards()
	type token struct {
		id   int
		left int
		at   int // current shard
	}
	var bounce Handler
	bounce = func(arg any) {
		tk := arg.(*token)
		e := g.Engine(tk.at)
		tr.record(tk.at, e.Now(), tk.id)
		if tk.left == 0 {
			return
		}
		tk.left--
		next := (tk.at + 1) % k
		src := tk.at
		tk.at = next
		g.Post(src, next, e.Now()+hop, bounce, tk)
	}
	for i := 0; i < tokens; i++ {
		g.Engine(0).AtCall(Time(1+i), bounce, &token{id: i, left: hops, at: 0})
	}
}

func collect(tr *shardTracer) []string {
	var out []string
	for s, lane := range tr.lanes {
		for _, e := range lane {
			out = append(out, fmt.Sprintf("s%d@%d#%d", s, e.when, e.tag))
		}
	}
	return out
}

func TestShardGroupPingPongDrains(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		g := NewShardGroup(k, 3)
		tr := newShardTracer(k)
		pingPong(g, tr, 5, 40, 3)
		drained, interrupted := g.RunUntilCheck(1_000_000, 16, nil)
		if !drained || interrupted {
			t.Fatalf("k=%d: drained=%v interrupted=%v, want drained", k, drained, interrupted)
		}
		total := 0
		for _, lane := range tr.lanes {
			total += len(lane)
			for i := 1; i < len(lane); i++ {
				if lane[i].when < lane[i-1].when {
					t.Fatalf("k=%d: shard trace went backwards: %v then %v", k, lane[i-1], lane[i])
				}
			}
		}
		if want := 5 * 41; total != want {
			t.Fatalf("k=%d: %d events traced, want %d", k, total, want)
		}
		if k > 1 && g.Posted() == 0 {
			t.Fatalf("k=%d: no cross-shard messages were mailed", k)
		}
	}
}

func TestShardGroupDeterministicPerShardCount(t *testing.T) {
	run := func(k int) []string {
		g := NewShardGroup(k, 3)
		tr := newShardTracer(k)
		pingPong(g, tr, 7, 31, 4)
		if drained, _ := g.RunUntilCheck(1_000_000, 4, nil); !drained {
			t.Fatalf("k=%d did not drain", k)
		}
		return collect(tr)
	}
	for _, k := range []int{1, 2, 4, 8} {
		a, b := run(k), run(k)
		if len(a) != len(b) {
			t.Fatalf("k=%d: %d vs %d trace entries across runs", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("k=%d: traces diverge at %d: %q vs %q", k, i, a[i], b[i])
			}
		}
	}
}

// The workload above is contention-free, so every shard count must produce
// the identical event trace — sharding may only reorder same-cycle ties,
// and this workload has none that cross shards.
func TestShardGroupMatchesSerialOnDisjointWork(t *testing.T) {
	run := func(k int) map[string]int {
		g := NewShardGroup(k, 3)
		tr := newShardTracer(k)
		pingPong(g, tr, 3, 20, 5)
		if drained, _ := g.RunUntilCheck(1_000_000, 1, nil); !drained {
			t.Fatalf("k=%d did not drain", k)
		}
		set := map[string]int{}
		for s, lane := range tr.lanes {
			for _, e := range lane {
				// Key by logical position, not shard id, so shard counts compare.
				_ = s
				set[fmt.Sprintf("@%d#%d", e.when, e.tag)]++
			}
		}
		return set
	}
	base := run(1)
	for _, k := range []int{2, 4} {
		got := run(k)
		if len(got) != len(base) {
			t.Fatalf("k=%d: %d distinct events, serial had %d", k, len(got), len(base))
		}
		for key, n := range base {
			if got[key] != n {
				t.Fatalf("k=%d: event %s seen %d times, serial %d", k, key, got[key], n)
			}
		}
	}
}

func TestShardGroupDeadline(t *testing.T) {
	g := NewShardGroup(2, 3)
	tr := newShardTracer(2)
	pingPong(g, tr, 1, 100, 3)
	drained, interrupted := g.RunUntilCheck(50, 1, nil)
	if drained || interrupted {
		t.Fatalf("drained=%v interrupted=%v, want neither (deadline)", drained, interrupted)
	}
	for s := 0; s < 2; s++ {
		if now := g.Engine(s).Now(); now > 50 {
			t.Fatalf("shard %d clock %d ran past deadline 50", s, now)
		}
	}
	for _, lane := range tr.lanes {
		for _, e := range lane {
			if e.when > 50 {
				t.Fatalf("event executed at %d, past deadline 50", e.when)
			}
		}
	}
	// Resuming with a later deadline finishes the workload.
	if drained, _ := g.RunUntilCheck(1_000_000, 1, nil); !drained {
		t.Fatal("resumed run did not drain")
	}
	total := 0
	for _, lane := range tr.lanes {
		total += len(lane)
	}
	if total != 101 {
		t.Fatalf("%d events after resume, want 101", total)
	}
}

func TestShardGroupInterruptJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewShardGroup(4, 3)
	tr := newShardTracer(4)
	pingPong(g, tr, 8, 10_000, 3)
	var polls atomic.Int64
	drained, interrupted := g.RunUntilCheck(1_000_000_000, 8, func() bool {
		return polls.Add(1) >= 3
	})
	if drained || !interrupted {
		t.Fatalf("drained=%v interrupted=%v, want interrupted", drained, interrupted)
	}
	waitGoroutines(t, before)
}

func TestShardGroupPanicPropagatesAndJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewShardGroup(3, 2)
	g.Engine(2).AtCall(10, func(any) { panic("component exploded") }, nil)
	g.Engine(0).AtCall(5, func(any) {}, nil)
	defer func() {
		r := recover()
		sp, ok := r.(*ShardPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *ShardPanic", r, r)
		}
		if sp.Shard != 2 || sp.Value != "component exploded" {
			t.Fatalf("ShardPanic = shard %d value %v", sp.Shard, sp.Value)
		}
		if sp.Stack == "" {
			t.Fatal("ShardPanic carries no stack")
		}
		waitGoroutines(t, before)
	}()
	g.RunUntilCheck(1_000_000, 1, nil)
	t.Fatal("run returned without panicking")
}

func TestShardGroupLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 3)
	g.Engine(0).AtCall(10, func(any) {
		// Cross-shard send 2 cycles out under lookahead 3: model bug.
		g.Post(0, 1, g.Engine(0).Now()+2, func(any) {}, nil)
	}, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation did not panic")
		}
		if _, ok := r.(*ShardPanic); !ok {
			t.Fatalf("recovered %T, want *ShardPanic", r)
		}
	}()
	g.RunUntilCheck(1_000, 1, nil)
}

func TestShardGroupRejectsBadConstruction(t *testing.T) {
	for _, tc := range []struct{ shards, lookahead int }{{0, 3}, {-1, 3}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewShardGroup(%d, %d) did not panic", tc.shards, tc.lookahead)
				}
			}()
			NewShardGroup(tc.shards, Time(tc.lookahead))
		}()
	}
}

func TestShardGroupCountersAndClocks(t *testing.T) {
	g := NewShardGroup(2, 3)
	tr := newShardTracer(2)
	pingPong(g, tr, 2, 10, 3)
	g.RunUntilCheck(1_000_000, 1, nil)
	if g.Windows() == 0 {
		t.Fatal("no windows recorded")
	}
	if g.Fired() == 0 {
		t.Fatal("no events counted")
	}
	if g.MaxNow() < g.Now() {
		t.Fatalf("MaxNow %d < Now %d", g.MaxNow(), g.Now())
	}
}

// A window that injects mail allocates nothing, so a run's allocations do
// not grow with its window count. Four tokens bounce between two shards in
// step, so every window sorts four mailed events.
func TestShardGroupWindowsDoNotAllocate(t *testing.T) {
	g := NewShardGroup(2, 3)
	type token struct{ at int }
	var bounce Handler
	bounce = func(arg any) {
		tk := arg.(*token)
		src := tk.at
		tk.at ^= 1
		g.Post(src, tk.at, g.Engine(src).Now()+3, bounce, tk)
	}
	for i := 0; i < 4; i++ {
		g.Engine(0).AtCall(1, bounce, &token{})
	}
	var deadline Time
	run := func(windows Time) func() {
		return func() {
			deadline += 3 * windows
			if drained, _ := g.RunUntilCheck(deadline, 1, nil); drained {
				t.Fatal("the bouncing tokens drained")
			}
		}
	}
	run(64)() // warm the event pools, mailboxes and sort buffers
	one := testing.AllocsPerRun(20, run(1))
	many := testing.AllocsPerRun(20, run(256))
	if many > one {
		t.Fatalf("a 256-window run allocates %.0f times, a 1-window run %.0f", many, one)
	}
}

// waitGoroutines retries because worker goroutines finish their final
// shutdown increment slightly after RunUntilCheck returns the join.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}
