package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// config is what one workload run is asked to do.
type config struct {
	seed   int64
	window time.Duration // measured window; 0 runs exactly one op
	traced bool
	toy    bool // tiny inputs through the same code path (tests)
	root   string
	out    string
}

// run accumulates one workload run's measurements and output checks. Only
// the goroutine running the workload touches it.
type run struct {
	config
	spec *workloadSpec
	exp  *expected
	tmp  string // temporary directory (store dirs), removed at the end

	setups []float64 // seconds per setup repetition
	busy   time.Duration
	alloc0 uint64 // bytes allocated before the measured window

	ops       []float64 // wall ms per measured op
	attempted int
	failed    int
	errs      []string

	lay *layers // per-layer accounting; nil unless traced
}

// check records one output check; a failure is kept with its message.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.errs) < 20 {
			r.errs = append(r.errs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *run) recordOp(d time.Duration) { r.ops = append(r.ops, msOf(d)) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setup builds a workload's state r.spec.setups times (once for toy runs),
// timing each, and returns the last; discard releases the earlier ones.
// The measured window, and its allocation count, starts when it returns.
func setup[T any](r *run, build func() (T, error), discard func(T)) (T, error) {
	reps := r.spec.setups
	if r.toy {
		reps = 1
	}
	var st T
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(st)
		}
		t0 := time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	r.alloc0 = totalAlloc()
	return st, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// serialLoop runs op until the next one, judged by the slowest so far,
// would end past the deadline. At least one op always runs. Each op starts
// on a freshly collected heap, so neither its time nor the peak RSS depends
// on how much garbage earlier ops left, that is on how many ops fit.
func (r *run) serialLoop(deadline time.Time, op func(i int) error) error {
	var slowest time.Duration
	for i := 0; i == 0 || time.Now().Add(slowest).Before(deadline); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := op(i); err != nil {
			return err
		}
		d := time.Since(t0)
		r.busy += d
		r.recordOp(d)
		slowest = max(slowest, d)
	}
	return nil
}

// runResult is one workload run as reported: the JSON result line plus
// the detail the summary needs.
type runResult struct {
	Set       int      `json:"set,omitempty"` // set number in a multi-set summary
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Errors    []string `json:"errors,omitempty"`
	Host      host     `json:"host"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func (res *runResult) metric(name string) (metric, bool) {
	for _, m := range res.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runOne executes one workload in this process and builds its result. The
// CPU profile and Chrome trace of a traced run land in cfg.out.
func runOne(w *workloadSpec, cfg config) (*runResult, error) {
	exp, err := loadExpected(cfg.root)
	if err != nil {
		return nil, err
	}
	return runWith(w, cfg, exp)
}

// runWith is runOne checking against the given pinned outputs.
func runWith(w *workloadSpec, cfg config, exp *expected) (_ *runResult, err error) {
	tmp, err := os.MkdirTemp(cfg.out, "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{config: cfg, spec: w, exp: exp, tmp: tmp}
	if cfg.traced {
		r.lay = newLayers()
		if !cfg.toy {
			prof, err := os.Create(filepath.Join(cfg.out, "cpu-"+w.name+".pprof"))
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(prof); err != nil {
				prof.Close()
				return nil, err
			}
			defer func() {
				pprof.StopCPUProfile()
				if cerr := prof.Close(); err == nil {
					err = cerr
				}
			}()
		}
		if err := r.lay.microbenchmarks(r); err != nil {
			return nil, fmt.Errorf("layer microbenchmarks: %w", err)
		}
	}

	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	allocated := float64(totalAlloc() - r.alloc0)

	res := &runResult{
		Workload: w.name, Traced: cfg.traced,
		Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0 && r.attempted > 0,
		Errors: r.errs, Host: thisHost(), Seed: cfg.seed, Seconds: cfg.window.Seconds(),
	}
	if cfg.traced {
		res.Metrics = r.lay.report(r)
		if err := r.lay.writeTrace(filepath.Join(cfg.out, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	} else {
		n := len(r.ops)
		res.Metrics = []metric{
			{"setup_s", median(r.setups), "s", len(r.setups)},
			{"op_p50_ms", median(r.ops), "ms", n},
			{"op_tail_ms", quantile(r.ops, min(w.tail, tailQuantile(n))), "ms", n},
			{"ops_per_s", float64(n) / r.busy.Seconds(), "1/s", n},
			{"peak_rss_mb", peakRSSMB(), "MB", 1},
			{"alloc_mb_per_op", allocated / 1e6 / float64(max(n, 1)), "MB", n},
		}
	}
	name := w.name
	if cfg.traced {
		name += ".trace"
	}
	if err := writeJSON(filepath.Join(cfg.out, name+".json"), res); err != nil {
		return nil, err
	}
	return res, nil
}

// peakRSSMB is this process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// printResult writes one line per metric, then the JSON result line last.
func printResult(w io.Writer, res *runResult) error {
	for _, e := range res.Errors {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", res.Workload, e)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]val{}}
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
		line.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
