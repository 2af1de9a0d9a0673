package harness

// Regression tests for failure containment in the Runner: structured RunError
// tagging, memo-cache un-poisoning after a failed simulation, bounded budgets
// surfacing liveness diagnoses, and retry of host-level flakes.

import (
	"errors"
	"strings"
	"testing"

	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/machine"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

func testApp(name string, build func() func(tid int, e cpu.Env)) workload.App {
	return workload.App{Name: name, Build: func(a *syncrt.Arena, threads int, lib *syncrt.Lib) func(int, cpu.Env) {
		return build()
	}}
}

// TestRunnerCacheUnpoisonedAfterFailure: a failed simulation must satisfy its
// in-flight sharers with the structured error, but must NOT be memoized — a
// later submission of the same key gets a fresh simulation.
func TestRunnerCacheUnpoisonedAfterFailure(t *testing.T) {
	r := NewRunner(2)
	calls := 0
	app := testApp("flaky", func() func(int, cpu.Env) {
		calls++
		if calls == 1 {
			panic("transient host failure")
		}
		return func(tid int, e cpu.Env) { e.Compute(10) }
	})
	cfg := machine.MSAOMU(2, 1)
	lib := syncrt.HWLib()

	_, err := r.App(app, cfg, lib).Result()
	if err == nil {
		t.Fatal("first submission should have failed")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.App != "flaky" || re.Config != cfg.Name || re.Panic == nil || re.Stack == "" {
		t.Fatalf("RunError not fully tagged: %+v", re)
	}

	// Same key again: the poisoned entry must be gone.
	if _, err := r.App(app, cfg, lib).Result(); err != nil {
		t.Fatalf("resubmission after failure did not re-run: %v", err)
	}
	if calls != 2 {
		t.Fatalf("simulation ran %d times, want 2 (failure evicted, success memoized)", calls)
	}
	if st := r.Stats(); st.Unique != 2 {
		t.Fatalf("Unique = %d, want 2 distinct simulations for the re-run key", st.Unique)
	}

	// The success IS memoized: a third submission is a memo hit.
	if _, err := r.App(app, cfg, lib).Result(); err != nil || calls != 2 {
		t.Fatalf("successful run not memoized: err=%v calls=%d", err, calls)
	}
}

// TestRunnerRetries: with retries armed, a host-level flake is retried inside
// one submission and sharers only ever see the final success.
func TestRunnerRetries(t *testing.T) {
	r := NewRunner(1)
	r.SetRetries(2)
	calls := 0
	app := testApp("flaky2", func() func(int, cpu.Env) {
		calls++
		if calls < 3 {
			panic("transient")
		}
		return func(tid int, e cpu.Env) { e.Compute(10) }
	})
	if _, err := r.App(app, machine.MSAOMU(2, 1), syncrt.HWLib()).Result(); err != nil {
		t.Fatalf("run failed despite retries: %v", err)
	}
	if calls != 3 {
		t.Fatalf("simulation attempted %d times, want 3", calls)
	}
}

// TestRunnerBudgetSurfacesLiveness: a tight budget turns a too-long run into
// a structured liveness failure (with the watchdog diagnosis reachable via
// errors.As), instead of burning the full default deadline.
func TestRunnerBudgetSurfacesLiveness(t *testing.T) {
	r := NewRunner(1)
	r.SetBudget(1000)
	app := testApp("crawler", func() func(int, cpu.Env) {
		return func(tid int, e cpu.Env) { e.Compute(10_000_000) }
	})
	_, err := r.App(app, machine.MSAOMU(2, 1), syncrt.HWLib()).Result()
	var le *machine.LivenessError
	if !errors.As(err, &le) {
		t.Fatalf("want *machine.LivenessError through the RunError chain, got %T: %v", err, err)
	}
	if le.Diag == nil {
		t.Fatal("liveness failure carries no diagnosis")
	}
}

// TestRunErrorCarriesFaultSeed: chaos campaigns triage failures by fault
// seed; the tag must carry it and the message must show it.
func TestRunErrorCarriesFaultSeed(t *testing.T) {
	r := NewRunner(1)
	app := testApp("boomer", func() func(int, cpu.Env) {
		panic("boom")
	})
	cfg := machine.MSAOMU(2, 1)
	cfg.Fault = fault.DefaultPlan(0xABC)
	_, err := r.App(app, cfg, syncrt.HWLib()).Result()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Seed != 0xABC {
		t.Fatalf("Seed = %#x, want 0xabc", re.Seed)
	}
	if !strings.Contains(err.Error(), "fault seed 0xabc") {
		t.Fatalf("error message lacks the fault seed: %q", err.Error())
	}
}
