package machine

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"misar/internal/cpu"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

// waitGoroutines retries until the goroutine count returns to its pre-test
// level (worker teardown is asynchronous with respect to RunCtx returning
// only on the panic path; elsewhere it is a strict post-condition).
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

// shardedConfig is the reference sharded machine for these tests: 16 tiles on
// a 4×4 mesh (so 2 and 4 shards divide the height), full observability on.
func shardedConfig(tiles, shards int) Config {
	cfg := MSAOMU(tiles, 2)
	cfg.Metrics = true
	cfg.Invariants = true
	cfg.Shards = shards
	return cfg
}

// shardWorkload spawns the canonical mixed workload on every tile: a
// contended global mutex protecting a non-atomic counter, then barrier
// phases — both cross every shard boundary through the MSA.
func shardWorkload(m *Machine, tiles, iters, phases int) (counter memory.Addr) {
	arena := syncrt.NewArena(0x100000)
	lock := arena.Mutex()
	counter = arena.Data(1)
	bar := arena.Barrier(tiles)
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	lib := syncrt.HWLib()
	m.SpawnAll(tiles, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qnodes[tid])
		for i := 0; i < iters; i++ {
			rt.Lock(lock)
			v := e.Load(counter)
			e.Compute(5)
			e.Store(counter, v+1)
			rt.Unlock(lock)
			e.Compute(uint64(7 + tid))
		}
		for p := 0; p < phases; p++ {
			e.Compute(uint64(3 + tid%5))
			rt.Wait(bar)
		}
	})
	return counter
}

type shardRun struct {
	end      sim.Time
	counter  uint64
	snapshot string // JSON metrics snapshot: map keys marshal sorted, so diffable
	syncOps  uint64
}

func runSharded(t *testing.T, tiles, shards, iters, phases int) shardRun {
	t.Helper()
	m := New(shardedConfig(tiles, shards))
	counter := shardWorkload(m, tiles, iters, phases)
	end, err := m.Run(deadline)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	m.collectMetrics()
	b, err := json.Marshal(m.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return shardRun{end, m.Store.Load(counter), string(b), m.SyncOps()}
}

// TestShardedMachineMatchesSerial is the machine-level equivalence result
// for tie-free schedules: this workload's component interactions cross
// tiles through the NoC, whose link-grant order is physical (per-cycle,
// per-link) rather than event-insertion-order, and never contend on the
// same cycle, so sharded runs finish on the serial machine's exact cycle
// with byte-identical merged metrics. This is deliberately a special case:
// under same-cycle contention the two kernels resolve ties by different
// (both legal) orders — that divergence is pinned by
// harness.TestShardedFigureDivergencePinned and explained in DESIGN.md §14.
func TestShardedMachineMatchesSerial(t *testing.T) {
	const tiles, iters, phases = 16, 6, 4
	serial := runSharded(t, tiles, 0, iters, phases)
	if serial.counter != tiles*iters {
		t.Fatalf("serial counter = %d, want %d", serial.counter, tiles*iters)
	}
	for _, k := range []int{1, 2, 4} {
		got := runSharded(t, tiles, k, iters, phases)
		if got.counter != tiles*iters {
			t.Errorf("shards=%d: counter = %d, want %d (mutual exclusion)", k, got.counter, tiles*iters)
		}
		if got.end != serial.end {
			t.Errorf("shards=%d: finished at cycle %d, serial %d", k, got.end, serial.end)
		}
		if got.syncOps != serial.syncOps {
			t.Errorf("shards=%d: %d sync ops, serial %d", k, got.syncOps, serial.syncOps)
		}
		if got.snapshot != serial.snapshot {
			t.Errorf("shards=%d: metrics snapshot diverges from serial\n sharded: %.300s\n serial:  %.300s",
				k, got.snapshot, serial.snapshot)
		}
	}
}

// TestShardedRaggedMesh: 8 tiles land on a 3×3 mesh whose last position is
// a core-less pass-through router; with 3 shards (height 3 divides) that
// router still needs a shard owner for its hop events. Regression for the
// shard map being sized to the tile count instead of the mesh.
func TestShardedRaggedMesh(t *testing.T) {
	const tiles, iters, phases = 8, 4, 3
	serial := runSharded(t, tiles, 0, iters, phases)
	got := runSharded(t, tiles, 3, iters, phases)
	if got.counter != tiles*iters {
		t.Errorf("counter = %d, want %d (mutual exclusion)", got.counter, tiles*iters)
	}
	if got.syncOps != serial.syncOps {
		t.Errorf("%d sync ops, serial %d", got.syncOps, serial.syncOps)
	}
	again := runSharded(t, tiles, 3, iters, phases)
	if got != again {
		t.Fatalf("two identical ragged-mesh runs diverged:\n%+v\n%+v", got, again)
	}
}

// TestShardedMachineDeterministic: same config, same workload, same bytes —
// twice, at every shard count.
func TestShardedMachineDeterministic(t *testing.T) {
	for _, k := range []int{2, 4} {
		a := runSharded(t, 16, k, 5, 3)
		b := runSharded(t, 16, k, 5, 3)
		if a != b {
			t.Fatalf("shards=%d: two identical runs diverged:\n%+v\n%+v", k, a, b)
		}
	}
}

// TestShardedCancelMidRun cancels from inside a shard's own event stream and
// checks the structured error plus full worker-goroutine teardown.
func TestShardedCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(shardedConfig(16, 4))
	m.SpawnAll(16, func(tid int, e cpu.Env) {
		for {
			e.Compute(10)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Group.Engine(2).At(5_000, func() { cancel() })

	_, err := m.RunCtx(ctx, sim.Time(1_000_000_000_000))
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false (err %v)", err)
	}
	if ce.At < 5_000 {
		t.Errorf("cancelled at cycle %d, before the cancel event", ce.At)
	}
	// Thread teardown is asynchronous (Kill closes the handoff channels and
	// the bodies unwind on their own goroutines): leak-freedom, not a
	// counter, is the post-condition.
	waitGoroutines(t, before)
}

// TestShardedCancelStress is the mid-window teardown soak: many short runs,
// each cancelled at a different point in the window schedule, must every
// time produce a clean CancelError and leak nothing. CI runs this under
// -race, where it doubles as a handoff-ordering check on the barrier.
func TestShardedCancelStress(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	before := runtime.NumGoroutine()
	for round := 0; round < rounds; round++ {
		m := New(shardedConfig(16, 4))
		m.SpawnAll(16, func(tid int, e cpu.Env) {
			for {
				e.Compute(uint64(5 + tid%7))
			}
		})
		ctx, cancel := context.WithCancel(context.Background())
		// Vary both the cancelling shard and the cycle within the window
		// schedule, so teardown is exercised at many barrier phases.
		shard := round % 4
		at := sim.Time(500 + 37*round)
		m.Group.Engine(shard).At(at, func() { cancel() })
		_, err := m.RunCtx(ctx, sim.Time(1_000_000_000_000))
		cancel()
		var ce *CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("round %d: err = %v, want *CancelError", round, err)
		}
	}
	waitGoroutines(t, before)
}

// TestShardedPanicBecomesStructuredError: a component panic on a non-zero
// shard must surface as *PanicError carrying the faulting shard's own stack,
// with all workers joined.
func TestShardedPanicBecomesStructuredError(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(shardedConfig(16, 4))
	m.SpawnAll(16, func(tid int, e cpu.Env) {
		for i := 0; i < 50; i++ {
			e.Compute(10)
		}
	})
	m.Group.Engine(3).At(100, func() { panic("injected component fault") })
	_, err := m.Run(deadline)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "injected component fault" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if pe.Stack == "" {
		t.Error("PanicError.Stack empty, want the faulting shard's stack")
	}
	waitGoroutines(t, before)
}

// TestShardedFlightEventsMerged: the per-shard flight rings merge into one
// timestamp-ordered dump spanning tiles from different shards. Resized
// rings trace a sharded run whole: every shard's cores record their
// instruction stream into their own ring, so no serial-only restriction
// applies.
func TestShardedFlightEventsMerged(t *testing.T) {
	for _, c := range []struct {
		shards, grow int
	}{{4, 0}, {2, 100_000}} {
		m := New(shardedConfig(16, c.shards))
		for _, f := range m.Flights {
			f.Resize(c.grow)
		}
		shardWorkload(m, 16, 3, 2)
		if _, err := m.Run(deadline); err != nil {
			t.Fatal(err)
		}
		d := m.FlightDump()
		evs := d.Events
		if len(evs) == 0 {
			t.Fatal("no flight events recorded")
		}
		shardsSeen := map[int]bool{}
		issueShards := map[int]bool{}
		var issues uint64
		for i, e := range evs {
			if i > 0 && evs[i-1].At > e.At {
				t.Fatalf("shards=%d: flight events out of order at %d: %d then %d", c.shards, i, evs[i-1].At, e.At)
			}
			shardsSeen[m.ShardOf(int(e.Tile))] = true
			if e.Kind == obs.FIssue {
				issues++
				issueShards[m.ShardOf(int(e.Tile))] = true
			}
		}
		if len(shardsSeen) != c.shards {
			t.Errorf("shards=%d: flight dump covers %d shards", c.shards, len(shardsSeen))
		}
		if c.grow == 0 {
			continue
		}
		if d.Total != uint64(len(evs)) {
			t.Fatalf("shards=%d: traced rings kept %d of %d events", c.shards, len(evs), d.Total)
		}
		if issues != m.SyncOps() || len(issueShards) != c.shards {
			t.Errorf("shards=%d: %d issue events from %d shards, want all %d sync ops from every shard",
				c.shards, issues, len(issueShards), m.SyncOps())
		}
	}
}

// TestShardedRejectsIncompatibleConfigs: the constructor refuses the
// combinations validateSharding documents, with the same message Validate
// would report for file-loaded configs.
func TestShardedRejectsIncompatibleConfigs(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: New did not panic", name)
			}
		}()
		New(cfg)
	}
	ideal := Ideal(16)
	ideal.Shards = 2
	mustPanic("ideal", ideal)

	badBands := shardedConfig(16, 3) // 3 does not divide height 4
	mustPanic("bands", badBands)

	faulted := shardedConfig(16, 2)
	faulted.Fault.SteerRate = 1 << 20
	mustPanic("fault-injection", faulted)
}
