package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// summary is bench-out/results.json.
type summary struct {
	Schema   string       `json:"schema"`
	Host     host         `json:"host"`
	Seed     int64        `json:"seed"`
	Seconds  int          `json:"seconds"`
	Traced   bool         `json:"traced"`
	Sets     int          `json:"sets"`
	Runs     []*runResult `json:"runs"`
	Spreads  []spreadLine `json:"spreads,omitempty"`
	Overhead []overhead   `json:"trace_overhead,omitempty"`
}

type spreadLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
}

type overhead struct {
	Workload    string  `json:"workload"`
	UntracedMS  float64 `json:"untraced_op_ms"`
	TracedMS    float64 `json:"traced_op_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

const resultsSchema = "misar-bench/results/v1"

// benchmarkSpec is the part of BENCHMARK.json the summary reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchmarkSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runWorkload runs one workload, traced or not, and returns its result.
type runWorkload func(w *workloadSpec, traced bool) (*runResult, error)

// childRuns runs each workload in a fresh process of this executable.
func childRuns(root, out string, seed int64, seconds int) (runWorkload, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return func(w *workloadSpec, traced bool) (*runResult, error) {
		return child(exe, root, out, w.name, seed, seconds, traced)
	}, nil
}

// runAll runs every workload sets times, with the order reversed on every
// other set, then prints the spread of each end-to-end metric across sets
// and, for a traced run, the tracing overhead. It writes results.json and
// fails when any run's output checks failed.
func runAll(root, out string, seed int64, seconds int, traced bool, sets int, runW runWorkload) error {
	spec, err := loadBenchmarkSpec(root)
	if err != nil {
		return err
	}
	sum := summary{Schema: resultsSchema, Host: thisHost(), Seed: seed, Seconds: seconds, Traced: traced, Sets: sets}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s %q\n", sum.Host.NProc, sum.Host.GOMAXPROCS, sum.Host.Go, sum.Host.OS, sum.Host.CPU)
	failed := false
	for set := 1; set <= sets; set++ {
		order := slices.Clone(workloads)
		if set%2 == 0 {
			slices.Reverse(order)
		}
		for _, w := range order {
			modes := []bool{false}
			if traced {
				modes = append(modes, true)
			}
			for _, tr := range modes {
				res, err := runW(w, tr)
				if err != nil {
					return err
				}
				fmt.Printf("%s error_rate %.6g ratio n=%d\n", w.name, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
				failed = failed || !res.Correct
				res.Set = set
				sum.Runs = append(sum.Runs, res)
			}
		}
	}
	if sets > 1 {
		sum.Spreads = spreads(sum.Runs, spec)
	}
	if traced {
		sum.Overhead = overheads(sum.Runs)
	}
	if err := writeJSON(filepath.Join(out, "results.json"), sum); err != nil {
		return err
	}
	if failed {
		return errors.New("output checks failed; see the CHECK FAILED lines")
	}
	return nil
}

// child runs one workload in a fresh process, relays its metric lines and
// reads back the detailed result it wrote.
func child(exe, root, out, name string, seed int64, seconds int, traced bool) (*runResult, error) {
	file := name
	trace := "0"
	if traced {
		file, trace = name+".trace", "1"
	}
	detail := filepath.Join(out, file+".json")
	os.Remove(detail) // a stale result must not stand in for a crashed child
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", out)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, line := range lines[:len(lines)-1] { // the last line is the JSON result
		fmt.Println(line)
	}
	b, err := os.ReadFile(detail)
	if err != nil {
		return nil, fmt.Errorf("%s: no result (%v): %w", name, runErr, err)
	}
	var res runResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", detail, err)
	}
	return &res, nil
}

// spreads prints, per workload and end-to-end metric, the spread of the set
// values next to the metric's bound: the quartile distance over the median
// from four sets on, the range over the median below that.
func spreads(runs []*runResult, spec *benchmarkSpec) []spreadLine {
	var out []spreadLine
	fmt.Println("spread across sets against the BENCHMARK.json bound:")
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			var xs []float64
			for _, r := range runs {
				if r.Workload != w.name || r.Traced {
					continue
				}
				if m, ok := r.metric(e.Name); ok {
					xs = append(xs, m.Value)
				}
			}
			if len(xs) < 2 {
				continue
			}
			s := spread(xs)
			if len(xs) < 4 {
				s = (slices.Max(xs) - slices.Min(xs)) / median(xs)
			}
			verdict := "ok"
			if s > e.Bound {
				verdict = "WIDER THAN BOUND"
			}
			fmt.Printf("%s %s spread %.1f%% bound %.0f%% %s\n", w.name, e.Name, 100*s, 100*e.Bound, verdict)
			out = append(out, spreadLine{w.name, e.Name, s, e.Bound})
		}
	}
	return out
}

// overheads compares each workload's traced op wall with its untraced one.
func overheads(runs []*runResult) []overhead {
	var out []overhead
	for _, w := range workloads {
		var plain, traced []float64
		for _, r := range runs {
			if r.Workload != w.name {
				continue
			}
			if m, ok := r.metric("op_p50_ms"); ok && !r.Traced {
				plain = append(plain, m.Value)
			}
			if m, ok := r.metric("op.p50_ms"); ok && r.Traced {
				traced = append(traced, m.Value)
			}
		}
		if len(plain) == 0 || len(traced) == 0 {
			continue
		}
		o := overhead{Workload: w.name, UntracedMS: median(plain), TracedMS: median(traced)}
		o.OverheadPct = 100 * (o.TracedMS/o.UntracedMS - 1)
		fmt.Printf("%s trace_overhead %.1f %% (traced op %.4g ms vs untraced %.4g ms)\n", w.name, o.OverheadPct, o.TracedMS, o.UntracedMS)
		out = append(out, o)
	}
	return out
}
