package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"misar/internal/cpu"
	"misar/internal/machine"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// These tests are the Runner's concurrency proof obligations and are
// designed to run under `go test -race` (CI does): an oversubscribed pool,
// many goroutines hammering one cache key, the progress callback under
// contention, and panic containment.

// TestRunnerOversubscribedPool drives a 32-worker pool with only three
// distinct experiments, submitted repeatedly from 16 goroutines each —
// maximum contention on the memo cache with most workers idle.
func TestRunnerOversubscribedPool(t *testing.T) {
	r := NewRunner(32)
	cfg := machine.MSAOMU(4, 2)
	kinds := []struct {
		op string
		fn MicroFn
	}{
		{"LockAcquire", workload.MicroLockAcquire},
		{"LockHandoff", workload.MicroLockHandoff},
		{"CondSignal", workload.MicroCondSignal},
	}
	const resubmits = 16
	results := make([][]workload.MicroResult, len(kinds))
	for i := range results {
		results[i] = make([]workload.MicroResult, resubmits)
	}
	var wg sync.WaitGroup
	for ki, k := range kinds {
		for j := 0; j < resubmits; j++ {
			ki, k, j := ki, k, j
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := r.Micro(k.op, k.fn, cfg, syncrt.HWLib()).Micro()
				if err != nil {
					t.Errorf("%s: %v", k.op, err)
					return
				}
				results[ki][j] = res
			}()
		}
	}
	wg.Wait()
	for ki, k := range kinds {
		for j := 1; j < resubmits; j++ {
			if results[ki][j] != results[ki][0] {
				t.Errorf("%s: submission %d saw %+v, submission 0 saw %+v",
					k.op, j, results[ki][j], results[ki][0])
			}
		}
	}
	st := r.Stats()
	if st.Submitted != len(kinds)*resubmits {
		t.Errorf("submitted = %d, want %d", st.Submitted, len(kinds)*resubmits)
	}
	if st.Unique != len(kinds) {
		t.Errorf("unique = %d, want %d: every resubmission must hit the cache", st.Unique, len(kinds))
	}
	if st.Done != st.Unique {
		t.Errorf("done = %d, want %d", st.Done, st.Unique)
	}
}

// TestRunnerProgressUnderContention checks the progress callback: exactly
// one event per unique run, with Done strictly increasing 1..N, while
// submissions race from many goroutines.
func TestRunnerProgressUnderContention(t *testing.T) {
	r := NewRunner(8)
	var events []ProgressEvent
	r.SetProgress(func(ev ProgressEvent) { events = append(events, ev) })

	cfg4 := machine.MSAOMU(4, 2)
	cfg8 := machine.MSAOMU(8, 2)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := cfg4
			if i%2 == 0 {
				cfg = cfg8
			}
			if _, err := r.Micro("LockAcquire", workload.MicroLockAcquire, cfg, syncrt.HWLib()).Micro(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Callbacks are serialized under the Runner's lock and run before the
	// run's done channel closes, so every event has landed once the last
	// Micro returns.
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("progress events = %d, want 2 unique runs", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d", i, ev.Done, i+1)
		}
		if ev.Err != nil {
			t.Errorf("event %d: unexpected error %v", i, ev.Err)
		}
		if !strings.Contains(ev.Label, "LockAcquire") {
			t.Errorf("event %d: label %q", i, ev.Label)
		}
	}
}

// TestRunnerPanicBecomesError: a panicking experiment must surface as an
// error on every sharer's Wait, not crash the process.
func TestRunnerPanicBecomesError(t *testing.T) {
	r := NewRunner(2)
	boom := func(machine.Config, *syncrt.Lib) workload.MicroResult {
		panic("boom")
	}
	first := r.Micro("boom", boom, machine.MSAOMU(4, 2), syncrt.HWLib())
	second := r.Micro("boom", boom, machine.MSAOMU(4, 2), syncrt.HWLib())
	for _, run := range []*Run{first, second} {
		if _, err := run.Micro(); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("want panic converted to error, got %v", err)
		}
	}
	// The pool must still be usable after a panic (the worker slot was
	// released).
	if _, err := r.Micro("LockAcquire", workload.MicroLockAcquire, machine.MSAOMU(4, 2), syncrt.HWLib()).Micro(); err != nil {
		t.Fatalf("runner unusable after panic: %v", err)
	}
}

// TestRunnerSerialPoolStillConcurrentSafe: Workers(1) with concurrent
// submitters — submissions must not deadlock waiting for each other's
// slot, since submit never blocks the caller.
func TestRunnerSerialPoolStillConcurrentSafe(t *testing.T) {
	r := NewRunner(1)
	if r.Workers() != 1 {
		t.Fatalf("Workers = %d", r.Workers())
	}
	cfg := machine.MSAOMU(4, 2)
	var wg sync.WaitGroup
	ops := []struct {
		op string
		fn MicroFn
	}{
		{"LockAcquire", workload.MicroLockAcquire},
		{"BarrierHandoff", workload.MicroBarrierHandoff},
	}
	for i := 0; i < 8; i++ {
		op := ops[i%len(ops)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Micro(op.op, op.fn, cfg, syncrt.HWLib()).Micro(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Unique != len(ops) {
		t.Errorf("unique = %d, want %d", st.Unique, len(ops))
	}
}

// TestRunnerWorkersFloor: worker counts below 1 clamp to a serial pool.
func TestRunnerWorkersFloor(t *testing.T) {
	for _, n := range []int{-3, 0, 1} {
		if got := NewRunner(n).Workers(); got != 1 {
			t.Errorf("NewRunner(%d).Workers() = %d, want 1", n, got)
		}
	}
}

// heapInUse returns the live heap after a full collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRunnerMemoKeepsResultsNotMachines: a finished run leaves only a
// results-only record in the memo. Distinct app runs through one live
// Runner, their handles dropped, retain a few KiB each — not a machine and
// its 128 KiB flight ring. Deduplication is unchanged: a resubmission is a
// memo hit answered by the record.
func TestRunnerMemoKeepsResultsNotMachines(t *testing.T) {
	const n = 16
	app := testApp("tiny", func() func(int, cpu.Env) {
		return func(tid int, e cpu.Env) { e.Compute(10) }
	})
	cfgFor := func(i int) machine.Config {
		cfg := machine.MSAOMU(4, 2)
		cfg.Name = fmt.Sprintf("tiny-%d", i) // a distinct memo key, the same simulation
		return cfg
	}
	r := NewRunner(2)
	before := heapInUse()
	for i := 0; i < n; i++ {
		if _, err := r.App(app, cfgFor(i), syncrt.HWLib()).Result(); err != nil {
			t.Fatal(err)
		}
	}
	per := (heapInUse() - before) / n
	runtime.KeepAlive(r)
	t.Logf("retained per finished run: %d bytes", per)
	if per > 4<<10 {
		t.Errorf("a finished run retains %d bytes in a live Runner, want at most 4 KiB", per)
	}

	again := r.App(app, cfgFor(0), syncrt.HWLib())
	if res, err := again.Result(); err != nil || res.Cycles == 0 {
		t.Fatalf("memo hit on a record: %+v, %v", res, err)
	}
	if d := again.Flight(); len(d.Events) != 0 {
		t.Errorf("a record carries %d flight events, want none", len(d.Events))
	}
	if st := r.Stats(); st.Submitted != n+1 || st.Unique != n || st.Done != n {
		t.Errorf("stats = %+v, want %d submitted, %d unique and done", st, n+1, n)
	}
}
