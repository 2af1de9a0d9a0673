package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func testConfig(t *testing.T, traced bool) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 1, traced: traced, toy: true, root: root, out: t.TempDir()}
}

// benchmarkJSON is the full BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T, root string) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var spec benchmarkJSON
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestToyWorkloads runs every workload at toy size, untraced and traced,
// through the same code path as a full run: every output check must pass
// and every metric BENCHMARK.json names must be reported, with units.
func TestToyWorkloads(t *testing.T) {
	spec := loadBenchmarkJSON(t, testConfig(t, false).root)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := testConfig(t, traced)
			res, err := runOne(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			var want []string
			units := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want = append(want, m.Name)
					units[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want = append(want, m.Name)
					units[m.Name] = m.Unit
				}
			}
			var got []string
			for _, m := range res.Metrics {
				got = append(got, m.Name)
				if units[m.Name] != m.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v %s, want unit %q", w.name, m.Name, m.Value, m.Unit, units[m.Name])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, m.Value)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if traced {
				for _, f := range []string{"trace-" + w.name + ".json", w.name + ".trace.json"} {
					if _, err := os.Stat(filepath.Join(cfg.out, f)); err != nil {
						t.Errorf("%s: %v", w.name, err)
					}
				}
			}
		}
	}
}

// TestPerturbedExpectationFails proves the checks bite: one pinned value
// off by one makes the run incorrect, for the machine-driven and the served
// workloads alike.
func TestPerturbedExpectationFails(t *testing.T) {
	cfg := testConfig(t, false)
	for _, tc := range []struct {
		workload string
		perturb  func(e *expected)
	}{
		{"scale-1024", func(e *expected) {
			o := e.Scale[scaleKey(scaleToyTiles, 2)]
			o.Fired++
			e.Scale[scaleKey(scaleToyTiles, 2)] = o
		}},
		{"serve-hit", func(e *expected) { e.Cycles[toyExperiments()[3].jobs()[1].String()]++ }},
		{"figs", func(e *expected) { e.FigsToySHA256 = strings.Repeat("0", 64) }},
	} {
		exp, err := loadExpected(cfg.root)
		if err != nil {
			t.Fatal(err)
		}
		tc.perturb(exp)
		res, err := runWith(workloadByName(tc.workload), cfg, exp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || len(res.Errors) == 0 {
			t.Errorf("%s: perturbed expectation not caught: correct=%v failed=%d", tc.workload, res.Correct, res.Failed)
		}
	}
}

// TestResultLine pins the contract of the last output line: one JSON
// object with exactly correct, attempted, failed and metrics, each metric a
// value and a unit.
func TestResultLine(t *testing.T) {
	res := &runResult{Workload: "figs", Correct: true, Attempted: 3, Failed: 0,
		Metrics: []metric{{"setup_s", 0.25, "s", 3}, {"op_p50_ms", 12913.6505385, "ms", 2}}}
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "figs setup_s 0.25 s n=3" {
		t.Errorf("metric line %q", lines[0])
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys %v", keys)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if v := ms["op_p50_ms"]; len(v) != 2 || v["value"] != 12913.6505385 || v["unit"] != "ms" {
		t.Errorf("op_p50_ms = %v, want the value with all its digits and its unit", v)
	}
}

// TestResultsJSON runs the all-workloads path at toy size with two sets and
// checks the results.json it writes: every run of every set, the spread of
// every end-to-end metric and the host provenance.
func TestResultsJSON(t *testing.T) {
	cfg := testConfig(t, false)
	inProcess := func(w *workloadSpec, traced bool) (*runResult, error) {
		c := cfg
		c.traced = traced
		return runOne(w, c)
	}
	if err := runAll(cfg.root, cfg.out, 1, 0, false, 2, inProcess); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(cfg.out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Schema != resultsSchema || sum.Sets != 2 || sum.Host.NProc < 1 || sum.Host.Go == "" {
		t.Errorf("summary header %+v", sum)
	}
	if len(sum.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want %d", len(sum.Runs), 2*len(workloads))
	}
	if first, second := sum.Runs[0].Workload, sum.Runs[len(workloads)].Workload; first != workloads[0].name || second != workloads[len(workloads)-1].name {
		t.Errorf("set order %s then %s: the second set must run in reverse", first, second)
	}
	spec := loadBenchmarkJSON(t, cfg.root)
	if want := len(workloads) * len(spec.EndToEnd); len(sum.Spreads) != want {
		t.Errorf("%d spreads, want %d", len(sum.Spreads), want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the code: the
// same workloads and per-layer metrics, bounds within the contract, and
// set-up time with the largest bound.
func TestBenchmarkJSONMatches(t *testing.T) {
	spec := loadBenchmarkJSON(t, testConfig(t, false).root)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if l := layerMetrics[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, code reports %+v", i, m, l)
		}
	}
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

// TestPercentileRule: the tail is the highest standard percentile with at
// least ten samples beyond it, and the spread matches Python's
// statistics.quantiles(xs, n=4) quartiles.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {10, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if s := spread(xs); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", s, (8.25-2.75)/5.5)
	}
}
