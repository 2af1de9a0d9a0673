package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"misar/internal/machine"
	"misar/internal/metrics"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// RunError is the structured failure of one simulation: it tags the error
// (or recovered panic) with everything needed to reproduce the run —
// experiment label, app, config name, library, and the fault-plan seed when
// the run injected faults. Chaos campaigns key their reports off these
// fields; `errors.As` recovers it from a Run's error.
type RunError struct {
	Label  string // "app on config" experiment label
	App    string
	Config string
	Lib    string
	Seed   uint64 // fault-plan seed; 0 when the run injected no faults
	Panic  any    // non-nil when the simulation panicked
	Stack  string // goroutine stack at the panic, if any
	Err    error  // underlying error when the run failed without panicking
}

func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %s failed", e.Label)
	if e.Seed != 0 {
		fmt.Fprintf(&b, " (fault seed %#x)", e.Seed)
	}
	if e.Panic != nil {
		fmt.Fprintf(&b, ": panic: %v", e.Panic)
	} else if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

func (e *RunError) Unwrap() error { return e.Err }

// Runner is a parallel, memoizing experiment executor. Submitting a run
// returns a *Run future immediately; a pool of up to Workers() goroutines
// executes the simulations in the background. Each unique
// (experiment kind, app, config, tiles, library) combination is simulated
// exactly once per Runner — repeated submissions (the pthread baseline
// appears in Fig6, Fig8, Fig9 and Headline) share one future, and once it
// finishes the memo keeps only its results (Run.record), not its machine.
// This is safe because every simulation builds a fresh machine.Machine and
// the single-threaded event kernel in internal/sim makes the result a pure
// function of (app, config, library).
//
// A Runner may be shared across figures (cmd/misar-fig builds one per
// invocation) and across goroutines.
type Runner struct {
	workers int
	sem     chan struct{} // worker slots

	mu        sync.Mutex
	cache     map[runKey]*Run // in-flight runs, then their records
	order     []*Run          // unique runs in submission order, for Reports
	metrics   bool            // meter every subsequently submitted run
	transform func(machine.Config) machine.Config
	progress  func(ProgressEvent)
	budget    sim.Time    // per-simulation cycle budget; 0 means RunDeadline
	retries   int         // extra attempts after a failed simulation
	store     ResultStore // persistent result store; nil means memory-only
	submitted int         // all submissions, including memo hits
	unique    int         // distinct simulations started
	finished  int         // distinct simulations completed
	executed  int         // simulations actually run (not memo/store hits)
	storeHits int         // unique submissions satisfied by the store
}

// runKey identifies one unique simulation. The cfg and lib fields are full
// value fingerprints, so ablation configs that tweak a parameter without
// renaming (e.g. OMUSweep mutating OMUCounters) never alias.
type runKey struct {
	kind string // "app:<name>" or "micro:<operation>"
	cfg  string
	lib  string
}

func keyFor(kind string, cfg machine.Config, lib *syncrt.Lib) runKey {
	return runKey{kind: kind, cfg: fmt.Sprintf("%+v", cfg), lib: fmt.Sprintf("%+v", *lib)}
}

// ProgressEvent describes one completed simulation. Done/Unique/Submitted
// are the runner-wide counters at completion time.
type ProgressEvent struct {
	Label     string        // e.g. "streamcluster on MSA/OMU-2 64c"
	Elapsed   time.Duration // wall-clock of this simulation
	Err       error         // non-nil if the run failed
	StoreHit  bool          // satisfied by the persistent store, not simulated
	Done      int           // unique simulations finished so far
	Unique    int           // unique simulations submitted so far
	Submitted int           // total submissions, including memo hits
}

// RunnerStats summarizes a Runner's activity so far. Submitted - Unique is
// the in-memory memo hit count; Unique = Executed + StoreHits + failures.
type RunnerStats struct {
	Submitted int // total submissions, including memo hits
	Unique    int // distinct simulations started
	Done      int // distinct simulations completed
	Executed  int // simulations actually run (cache and store misses)
	StoreHits int // unique submissions replayed from the persistent store
}

// Run is a future for one submitted simulation. The same *Run is returned
// to every submitter of the same key while it runs; later submitters get
// its record. Results must be treated as read-only.
type Run struct {
	label string
	kind  string // "app" or "micro"
	done  chan struct{}
	sc    *sharedCancel // nil on a record
	// flights are the finished machine's rings, by pointer, for Flight (the
	// machine is dropped); nil for micro runs, store replays and records.
	flights   []*obs.FlightRecorder
	cycles    sim.Time
	coverage  float64
	micro     workload.MicroResult
	report    *metrics.Report
	fromStore bool
	err       error
}

// record is what the memo keeps of a finished run: its results and done
// channel, without the flight rings, the cancel plumbing or the error
// (failed runs leave the memo, and Reports skips their report-less
// records).
func (r *Run) record() *Run {
	rec := *r
	rec.sc, rec.flights, rec.err = nil, nil, nil
	return &rec
}

// Micro blocks until the run completes and returns the microbenchmark
// measurement.
func (r *Run) Micro() (workload.MicroResult, error) {
	<-r.done
	return r.micro, r.err
}

// Report blocks until the run completes and returns its metrics report, or
// nil when the run was not metered (see Runner.EnableMetrics) or failed.
func (r *Run) Report() *metrics.Report {
	<-r.done
	return r.report
}

// Flight blocks until the run completes and returns the machine's
// flight-recorder dump: the one embedded in a structured failure
// (machine.FlightOf), or the finished machine's rings on success, every
// shard merged (obs.Dump), built anew on each call. Empty for store
// replays, micro runs and records, which carry no rings.
func (r *Run) Flight() obs.FlightDump {
	<-r.done
	if d, ok := machine.FlightOf(r.err); ok {
		return d
	}
	return obs.Dump(r.flights...)
}

// NewRunner returns a Runner executing at most workers simulations
// concurrently; workers < 1 means 1 (serial).
func NewRunner(workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		cache:   make(map[runKey]*Run),
	}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// SetProgress registers fn to be called after each unique simulation
// completes. Calls are serialized under the Runner's lock, so fn must not
// call back into the Runner.
func (r *Runner) SetProgress(fn func(ProgressEvent)) {
	r.mu.Lock()
	r.progress = fn
	r.mu.Unlock()
}

// EnableMetrics makes every subsequently submitted run build its machine
// with cfg.Metrics set, so each unique simulation produces a
// *metrics.Report. Metered and unmetered submissions of the same experiment
// memoize separately (the Metrics flag is part of the config fingerprint),
// so flipping this mid-stream never hands a caller a report-less future.
func (r *Runner) EnableMetrics() {
	r.mu.Lock()
	r.metrics = true
	r.mu.Unlock()
}

func (r *Runner) metered() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics
}

// SetBudget bounds every subsequently submitted application run to deadline
// cycles instead of workload.RunDeadline. Chaos campaigns set a tight budget
// so a hung fault schedule fails fast with a liveness diagnosis.
func (r *Runner) SetBudget(deadline sim.Time) {
	r.mu.Lock()
	r.budget = deadline
	r.mu.Unlock()
}

// ResultStore is the runner's view of a persistent result store: a local
// *store.Store, or a fleet-aware wrapper that falls back to peer fetch on a
// local miss (internal/fleet.PeerStore). The context carries the run's
// observability identity (trace ID, span recorder) and bounds any network
// side of a lookup; implementations must treat every failure as a miss.
type ResultStore interface {
	GetCtx(ctx context.Context, fp string) ([]byte, bool)
	PutCtx(ctx context.Context, fp string, payload []byte) error
}

// SetStore attaches a persistent result store. Every subsequently submitted
// unique run first consults the store (a hit is replayed without consuming a
// worker slot or running a simulation) and every subsequent success is
// persisted, so warm results are shared across processes and restarts.
// Failed runs are never stored.
func (r *Runner) SetStore(st ResultStore) {
	r.mu.Lock()
	r.store = st
	r.mu.Unlock()
}

// SetRetries makes the Runner re-attempt a failed simulation up to n more
// times before surfacing the failure. Simulations are deterministic, so this
// only helps against host-level nondeterminism (e.g. memory exhaustion in a
// crowded pool); the default is 0.
func (r *Runner) SetRetries(n int) {
	r.mu.Lock()
	if n < 0 {
		n = 0
	}
	r.retries = n
	r.mu.Unlock()
}

func (r *Runner) runBudget() sim.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget == 0 {
		return workload.RunDeadline
	}
	return r.budget
}

func (r *Runner) retryCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// SetConfigTransform installs fn to rewrite every subsequently submitted
// machine configuration before it is fingerprinted and run. The golden
// NoC-equivalence tests use it to flip an entire figure sweep onto the
// cascade reference timing model; transformed and untransformed submissions
// memoize separately because the fingerprint covers the rewritten config.
func (r *Runner) SetConfigTransform(fn func(machine.Config) machine.Config) {
	r.mu.Lock()
	r.transform = fn
	r.mu.Unlock()
}

// transformCfg applies the installed config rewrite, if any.
func (r *Runner) transformCfg(cfg machine.Config) machine.Config {
	r.mu.Lock()
	fn := r.transform
	r.mu.Unlock()
	if fn != nil {
		cfg = fn(cfg)
	}
	return cfg
}

// Reports returns the reports of all unique metered runs in submission
// order, blocking until each completes. Runs that were unmetered or failed
// are skipped. Submission order is deterministic for a fixed figure set —
// figures enqueue on the calling goroutine — so the returned slice is too,
// regardless of worker count.
func (r *Runner) Reports() []*metrics.Report {
	r.mu.Lock()
	runs := make([]*Run, len(r.order))
	copy(runs, r.order)
	r.mu.Unlock()
	var reps []*metrics.Report
	for _, run := range runs {
		if rep := run.Report(); rep != nil {
			reps = append(reps, rep)
		}
	}
	return reps
}

// Stats returns the submission/memoization counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{
		Submitted: r.submitted,
		Unique:    r.unique,
		Done:      r.finished,
		Executed:  r.executed,
		StoreHits: r.storeHits,
	}
}

// sharedCancel turns many submitter contexts into one run-wide cancel
// decision. Every submitter that shares a memoized future attaches its
// context; the run's private context is cancelled only when every attached
// context has ended while the run is still going — one impatient caller in
// a figure sweep must never kill a simulation that other callers (or a
// Background-context caller, which pins the run) are still waiting on.
type sharedCancel struct {
	cancel context.CancelFunc

	mu     sync.Mutex
	active int  // attached cancellable contexts still live
	pinned bool // an uncancellable context joined: never cancel
}

func newSharedCancel(cancel context.CancelFunc) *sharedCancel {
	return &sharedCancel{cancel: cancel}
}

// attach registers one submitter's interest. done is the run's completion
// channel; once the run finishes, watcher goroutines drain away regardless
// of the submitter contexts.
func (s *sharedCancel) attach(ctx context.Context, done <-chan struct{}) {
	if ctx == nil || ctx.Done() == nil {
		s.mu.Lock()
		s.pinned = true
		s.mu.Unlock()
		return
	}
	if ctx.Err() != nil {
		// Already ended: vote to cancel synchronously, so a submission with
		// a dead context deterministically never starts its simulation.
		s.mu.Lock()
		fire := s.active == 0 && !s.pinned
		s.mu.Unlock()
		if fire {
			s.cancel()
		}
		return
	}
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	go func() {
		select {
		case <-done:
		case <-ctx.Done():
			s.mu.Lock()
			s.active--
			fire := s.active == 0 && !s.pinned
			s.mu.Unlock()
			if fire {
				s.cancel()
			}
		}
	}()
}

// submit returns the future for key, starting fn at most once while the key
// is live. Submission never blocks: the goroutine waits for a worker slot,
// so figures can enqueue an entire sweep before collecting any result. When
// a store is attached and skey is non-empty, the store is consulted first —
// a hit replays the persisted result without consuming a worker slot — and
// a success is persisted afterwards.
//
// Failure containment: a panicking fn is recovered into a *RunError built
// from tag (so every sharer of the future sees a structured, reproducible
// failure instead of a crashed process), the worker slot is always released,
// and the key is evicted from the memo cache — a failed simulation must not
// satisfy future submissions, only in-flight sharers of the same future.
// Cancellation counts as failure: a cancelled run is evicted, so a later
// submission with a live context simply re-runs the experiment. A success
// is replaced in the memo by its record. Counters and memo are final before
// done closes, so Stats is current once any caller's Result returns.
func (r *Runner) submit(ctx context.Context, kind string, key runKey, skey string, tag RunError, fn func(ctx context.Context, run *Run) error) *Run {
	label := tag.Label
	r.mu.Lock()
	r.submitted++
	if existing, ok := r.cache[key]; ok {
		r.mu.Unlock()
		if existing.sc != nil {
			existing.sc.attach(ctx, existing.done)
		}
		return existing
	}
	run := &Run{label: label, kind: kind, done: make(chan struct{})}
	// The run's lifecycle detaches from the submitter (it must outlive an
	// impatient caller when sharers remain), but its observability identity
	// does not: the first submitter's trace ID and span recorder ride along,
	// so a served job's queue wait and simulation phases land in its trace.
	runCtx, cancel := context.WithCancel(obs.Transfer(context.Background(), ctx))
	run.sc = newSharedCancel(cancel)
	run.sc.attach(ctx, run.done)
	r.cache[key] = run
	idx := len(r.order)
	r.order = append(r.order, run)
	r.unique++
	st := r.store
	r.mu.Unlock()

	go func() {
		defer cancel()
		start := time.Now()
		var storeHit bool
		if st != nil && skey != "" {
			look := obs.StartSpan(runCtx, "harness", "store.lookup")
			storeHit = r.tryStore(runCtx, st, skey, run)
			look.SetArg("label", label)
			look.SetArg("hit", fmt.Sprint(storeHit))
			look.End()
		}
		if storeHit {
			r.mu.Lock()
			r.storeHits++
			r.mu.Unlock()
		} else {
			wait := obs.StartSpan(runCtx, "harness", "queue.wait")
			r.sem <- struct{}{}
			wait.SetArg("label", label)
			wait.End()
			if runCtx.Err() != nil {
				// Every submitter gave up before a worker freed up; don't
				// burn the slot on a run nobody is waiting for.
				re := tag
				re.Err = &machine.CancelError{Cause: context.Cause(runCtx)}
				run.err = &re
			} else {
				r.mu.Lock()
				r.executed++
				r.mu.Unlock()
				for attempt := r.retryCount(); ; attempt-- {
					run.err = nil
					func() {
						defer func() {
							if p := recover(); p != nil {
								re := tag // copy, then fill in the failure
								re.Panic = p
								re.Stack = string(debug.Stack())
								run.err = &re
							}
						}()
						run.err = fn(runCtx, run)
					}()
					// A cancelled run must not retry: the callers are gone
					// and each retry would burn a full budget's worth of
					// simulation.
					if run.err == nil || attempt <= 0 || runCtx.Err() != nil {
						break
					}
				}
			}
			<-r.sem
			if run.err == nil && st != nil && skey != "" {
				r.putStore(runCtx, st, skey, run)
			}
		}
		elapsed := time.Since(start)
		r.mu.Lock()
		rec := run.record()
		if run.err != nil {
			delete(r.cache, key)
		} else {
			r.cache[key] = rec
		}
		r.order[idx] = rec
		r.finished++
		if r.progress != nil {
			r.progress(ProgressEvent{
				Label:     label,
				Elapsed:   elapsed,
				Err:       run.err,
				StoreHit:  storeHit,
				Done:      r.finished,
				Unique:    r.unique,
				Submitted: r.submitted,
			})
		}
		r.mu.Unlock()
		close(run.done)
	}()
	return run
}

// App submits one application run. Submissions of the same
// (app, config, library) share a single simulation.
func (r *Runner) App(app workload.App, cfg machine.Config, lib *syncrt.Lib) *Run {
	return r.AppCtx(context.Background(), app, cfg, lib)
}

// AppCtx is App with caller cancellation. The context is advisory for
// sharers: the underlying simulation is cancelled only when every submitter
// sharing the memoized future has cancelled (a Background-context submitter
// pins the run to completion). A cancelled run fails with a
// *machine.CancelError inside the *RunError and is evicted from the memo
// cache.
func (r *Runner) AppCtx(ctx context.Context, app workload.App, cfg machine.Config, lib *syncrt.Lib) *Run {
	cfg = r.transformCfg(cfg)
	if r.metered() {
		cfg.Metrics = true
	}
	tag := RunError{
		Label:  fmt.Sprintf("%s on %s", app.Name, cfg.Name),
		App:    app.Name,
		Config: cfg.Name,
		Lib:    lib.Desc(),
		Seed:   cfg.Fault.Seed,
	}
	budget := r.runBudget()
	skey := StoreKey("app:"+app.Name, cfg, lib, budget)
	return r.submit(ctx, "app", keyFor("app:"+app.Name, cfg, lib), skey, tag, func(ctx context.Context, run *Run) error {
		m, cycles, err := workload.RunBudgetCtx(ctx, app, cfg, lib, budget)
		if err != nil {
			re := tag
			re.Err = err
			return &re
		}
		run.flights, run.cycles = m.Flights, cycles
		run.coverage = m.Coverage()
		run.report = m.MetricsReport("app", app.Name, lib.Desc())
		return nil
	})
}

// MicroFn is one of the workload.Micro* measurement functions.
type MicroFn func(machine.Config, *syncrt.Lib) workload.MicroResult

// Micro submits one Fig. 5 microbenchmark, memoized by
// (operation, config, library).
func (r *Runner) Micro(op string, fn MicroFn, cfg machine.Config, lib *syncrt.Lib) *Run {
	return r.MicroCtx(context.Background(), op, fn, cfg, lib)
}

// MicroCtx is Micro with caller cancellation. Microbenchmarks are short, so
// the context is honored at admission (a run that has not started yet is
// skipped) rather than polled mid-measurement.
func (r *Runner) MicroCtx(ctx context.Context, op string, fn MicroFn, cfg machine.Config, lib *syncrt.Lib) *Run {
	cfg = r.transformCfg(cfg)
	if r.metered() {
		cfg.Metrics = true
	}
	tag := RunError{
		Label:  fmt.Sprintf("%s on %s", op, cfg.Name),
		App:    op,
		Config: cfg.Name,
		Lib:    lib.Desc(),
		Seed:   cfg.Fault.Seed,
	}
	// Micro measurements ignore the runner budget, so the store key embeds
	// a fixed 0 — warm results stay shared across runners with different
	// app budgets.
	skey := StoreKey("micro:"+op, cfg, lib, 0)
	return r.submit(ctx, "micro", keyFor("micro:"+op, cfg, lib), skey, tag, func(ctx context.Context, run *Run) error {
		run.micro = fn(cfg, lib)
		run.report = run.micro.Report
		return nil
	})
}
