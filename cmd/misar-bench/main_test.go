package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `
goos: linux
cpu: Intel(R) Xeon(R) Processor
BenchmarkMeshAllToAll-8         3000     70058 ns/op    20408 B/op    278 allocs/op
BenchmarkEngineChurn             2000000         56.4 ns/op      0 B/op    0 allocs/op
BenchmarkFigSpeedup-8             1   123456789 ns/op   1.440 geomean-speedup   1024 B/op   12 allocs/op
PASS
`
	rs := parse(out)
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3", len(rs))
	}
	if mesh := rs[0]; mesh.Name != "MeshAllToAll" || mesh.NsPerOp != 70058 || mesh.AllocsPerOp != 278 {
		t.Fatalf("bad parse: %+v", mesh)
	}
	if eng := rs[1]; eng.Name != "EngineChurn" || eng.NsPerOp != 56.4 || eng.AllocsPerOp != 0 {
		t.Fatalf("bad parse: %+v", eng)
	}
	if fig := rs[2]; fig.Name != "FigSpeedup" || fig.NsPerOp != 123456789 || fig.AllocsPerOp != 12 {
		t.Fatalf("custom metrics must not shift the columns: %+v", fig)
	}
	if m := cpuLine.FindStringSubmatch(out); m == nil || m[1] != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("cpu line %q", m)
	}
}

// The gate reads medians and quartiles, so one outlying sample moves neither.
func TestSummarizeQuartiles(t *testing.T) {
	var rs []result
	for _, ns := range []float64{97, 56, 55, 58, 48, 57, 54, 59, 53, 60} {
		rs = append(rs, result{Name: "EngineChurn", NsPerOp: ns})
	}
	rs = append(rs, result{Name: "Other", NsPerOp: 7, AllocsPerOp: 3})
	ss := summarize(rs)
	if len(ss) != 2 || ss[0].Name != "EngineChurn" || ss[1].Name != "Other" {
		t.Fatalf("summaries %+v", ss)
	}
	if s := ss[0]; s.Median != 56.5 || s.Q1 != 54.25 || s.Q3 != 58.75 {
		t.Fatalf("EngineChurn median %.2f [%.2f, %.2f], want 56.5 [54.25, 58.75]", s.Median, s.Q1, s.Q3)
	}
	if s := ss[1]; s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.Allocs != 3 {
		t.Fatalf("single sample: %+v", s)
	}
}

func TestRegressions(t *testing.T) {
	prev := []result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "Gone", NsPerOp: 500},
	}
	cur := []result{
		{Name: "A", NsPerOp: 1100, AllocsPerOp: 11},  // +10%: within limit
		{Name: "B", NsPerOp: 1200, AllocsPerOp: 0},   // +20%: over limit
		{Name: "New", NsPerOp: 9999, AllocsPerOp: 1}, // only on the change: passes
	}
	bad := regressions(cur, prev)
	if len(bad) != 2 {
		t.Fatalf("got %d findings, want 2 (B slowdown, Gone dropped): %v", len(bad), bad)
	}
	joined := strings.Join(bad, "\n")
	if !strings.Contains(joined, "B:") || !strings.Contains(joined, "Gone:") {
		t.Fatalf("findings must name B and Gone: %v", bad)
	}
	if strings.Contains(joined, "A:") {
		t.Fatalf("A is within the limit and must pass: %v", bad)
	}
	if bad := regressions([]result{{Name: "A", NsPerOp: 1000, AllocsPerOp: 12}}, prev[:1]); len(bad) != 1 {
		t.Fatalf("+20%% allocs/op must fail: %v", bad)
	}
}

func TestRegressionsZeroAllocClaim(t *testing.T) {
	prev := []result{{Name: "Kernel", NsPerOp: 100, AllocsPerOp: 0}}
	cur := []result{{Name: "Kernel", NsPerOp: 100, AllocsPerOp: 1}}
	bad := regressions(cur, prev)
	if len(bad) != 1 || !strings.Contains(bad[0], "zero-alloc") {
		t.Fatalf("new allocations on a zero-alloc benchmark must fail: %v", bad)
	}
	if bad := regressions(prev, prev); len(bad) != 0 {
		t.Fatalf("identical samples must pass: %v", bad)
	}
}

// The recorder's overhead is a ratio per pair, taken in pair order, so a
// burst of host noise in one pair moves nothing, and the budget is 5%.
func TestFlightRatio(t *testing.T) {
	var rs []result
	for _, ns := range [][2]float64{{100, 104}, {200, 208}, {50, 52}, {100, 300}, {100, 101}} {
		rs = append(rs, result{Name: bareBench, NsPerOp: ns[0]}, result{Name: "Other", NsPerOp: 1},
			result{Name: flightBench, NsPerOp: ns[1]})
	}
	if r, ok := flightRatio(rs); !ok || r != 1.04 {
		t.Fatalf("flight ratio %v (ok %v), want the median pair ratio 1.04", r, ok)
	}
	if _, ok := flightRatio(rs[:2]); ok {
		t.Fatal("a bare sample without its flight sample must not yield a ratio")
	}
	if bad := regressions(rs, rs); len(bad) != 0 {
		t.Fatalf("4%% recorder overhead is within budget: %v", bad)
	}
	rs[2].NsPerOp, rs[5].NsPerOp, rs[8].NsPerOp = 106, 212, 53
	if bad := regressions(rs, rs); len(bad) != 1 || !strings.Contains(bad[0], "flight recorder") {
		t.Fatalf("6%% recorder overhead must fail: %v", bad)
	}
}
