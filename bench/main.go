// Command bench is the repository's end-to-end benchmark. It measures host
// time (the simulator's wall clock, not simulated cycles) on four workloads
// and checks every simulated output it produces against pinned values, so a
// change that speeds the simulator up but alters a result fails here.
//
// Run it from the repository root:
//
//	bash bench/run.sh                              # every workload, one child process each
//	bash bench/run.sh -workload figs -seed 3       # one workload in this process
//	bash bench/run.sh -trace 1                     # per-layer metrics, traces, CPU profiles
//	bash bench/run.sh -sets 2                      # run-to-run spread against the bounds
//	bash bench/run.sh -regen                       # rewrite testdata/expected.json
//
// With -workload the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it print one
// metric each as "<workload> <metric> <value> <unit> n=<samples>". Without
// -workload the command re-executes itself once per workload, so peak RSS and
// garbage-collector state stay per workload, and writes bench-out/results.json.
// It exits 1 when any output check fails. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadSpec is one benchmark workload: a set of inputs and the loop that
// measures it. BENCHMARK.json and README.md give the reason for each.
type workloadSpec struct {
	name string
	// parallel is how many simulations the workload keeps in flight; the
	// per-layer model divides its modeled CPU time by it.
	parallel int
	// setups is how often a run sets the workload up; setup_s is the
	// median, so one slow start (page faults, a burst of host load) does
	// not move it. serve-hit's set-up simulates its whole store, so it
	// repeats less.
	setups int
	// tail is the percentile op_tail_ms reports: the highest one that leaves
	// at least ten ops beyond it in every run on the reference host. It is
	// fixed per workload so that a run with a few more or fewer ops than
	// another reports the same percentile.
	tail float64
	run  func(r *run) error
}

var workloads = []*workloadSpec{
	{name: "figs", parallel: 2, setups: 5, tail: 0.5, run: runFigs},
	{name: "scale-1024", parallel: 1, setups: 5, tail: 0.5, run: runScale},
	{name: "serve-cold", parallel: 1, setups: 5, tail: 0.9, run: runServeCold},
	{name: "serve-hit", parallel: 1, setups: 3, tail: 0.999, run: runServeHit},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload in this process (figs, scale-1024, serve-cold, serve-hit)")
		seed     = flag.Int64("seed", 1, "seed for the serve workloads' key order")
		seconds  = flag.Int("seconds", 30, "measured window per workload, in seconds")
		traced   = flag.Int("trace", 0, "1 runs metered and traced and reports the per-layer metrics")
		sets     = flag.Int("sets", 1, "run every workload this many times, alternating the order, and print each metric's spread")
		regen    = flag.Bool("regen", false, "regenerate testdata/expected.json from the code as it is")
		out      = flag.String("out", "bench-out", "directory for results, traces and profiles")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -help")
		os.Exit(2)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	outDir := *out
	if !filepath.IsAbs(outDir) {
		outDir = filepath.Join(root, outDir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	switch {
	case *regen:
		err = regenerate(root)
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		var res *runResult
		res, err = runOne(w, config{seed: *seed, window: time.Duration(*seconds) * time.Second,
			traced: *traced == 1, root: root, out: outDir})
		if err == nil {
			err = printResult(os.Stdout, res)
		}
		if err == nil && !res.Correct {
			os.Exit(1)
		}
	default:
		var runW runWorkload
		if runW, err = childRuns(root, outDir, *seed, *seconds); err == nil {
			err = runAll(root, outDir, *seed, *seconds, *traced == 1, *sets, runW)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot locates the repository root: the working directory, or its parent
// when the command runs from bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "internal", "harness", "testdata")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root: %s holds no internal/harness/testdata", wd)
}

// host records where a measurement was taken; numbers from different hosts
// are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	CPU        string `json:"cpu"`
}

func thisHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
