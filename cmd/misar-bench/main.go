// Command misar-bench gates the kernel and layer microbenchmarks of a change
// against a base revision measured in the same session, on the same host.
// A committed file of absolute ns/op cannot tell host drift from a code
// regression; two builds timed side by side can.
//
// Run it from the repository root:
//
//	misar-bench                        # the working tree against HEAD
//	misar-bench -base main -out gate.txt
//
// It materialises -base in a temporary directory (git archive), builds each
// benchmarked package's test binary once per side, and runs every benchmark
// of the fixed table below in 10 alternating pairs, flipping which side runs
// first every pair, at a fixed iteration count and the same -test.cpu on
// both sides. The gate then compares medians:
//
//   - the change's ns/op and allocs/op must stay within 1.15× the base's;
//   - a benchmark at 0 allocs/op on the base must stay at 0;
//   - a benchmark the base has but the change lacks fails;
//   - the change's EngineChurnFlight/EngineChurnBare ratio, the median over
//     pairs of the two samples' ratio, must stay ≤ 1.05 (the flight recorder
//     is always on; a slower Record is what the FlightRecord row against the
//     base catches).
//
// The report lists both sides' medians and quartiles with GOMAXPROCS, the go
// version and the CPU; -out writes the same text to a file. Exit status 1
// means a budget was broken, 2 that the gate could not run.
//
// The end-to-end ledger (figure sweep, sharded 1024-tile run, served jobs)
// is the bench module; see bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	pairs        = 10   // alternating base/change pairs per benchmark
	maxRatio     = 1.15 // change median over base median, ns/op and allocs/op
	flightBudget = 1.05 // change's EngineChurnFlight/EngineChurnBare, median over pairs
	runTimeout   = "2m" // -test.timeout of one benchmark run
	flightBench  = "EngineChurnFlight"
	bareBench    = "EngineChurnBare"
)

// benchmarks is the gated table. Each iteration count makes one sample take
// 0.2–0.3 s on a 2-vCPU host, long enough to average over scheduler noise
// and short enough for 2×10 samples of every row.
var benchmarks = []struct {
	pkg, name string
	iters     int
}{
	{"./internal/sim", "EngineChurn", 5_000_000},
	{"./internal/sim", "EngineChurnClosure", 15_000_000},
	{"./internal/sim", "EngineScheduleRun", 1_600},
	{"./internal/obs", "FlightRecord", 25_000_000},
	{"./internal/obs", bareBench, 5_000_000},
	{"./internal/obs", flightBench, 5_000_000},
	{"./internal/obs", "FlightSnapshot", 12_000},
	{"./internal/noc", "MeshAllToAll", 6_000},
	{"./internal/coherence", "CoherencePingPong", 2_400},
}

// result is one parsed benchmark line.
type result struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
}

// benchLine matches one `go test -bench -benchmem` result row, dropping the
// -GOMAXPROCS suffix from the name; cpuLine, the CPU the testing package
// names in its header.
var (
	benchLine = regexp.MustCompile(`(?m)^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op.*\s(\S+) allocs/op`)
	cpuLine   = regexp.MustCompile(`(?m)^cpu: (.+)$`)
)

func parse(out string) []result {
	var rs []result
	for _, m := range benchLine.FindAllStringSubmatch(out, -1) {
		ns, err := strconv.ParseFloat(m[2], 64)
		allocs, err2 := strconv.ParseFloat(m[3], 64)
		if err == nil && err2 == nil {
			rs = append(rs, result{Name: m[1], NsPerOp: ns, AllocsPerOp: allocs})
		}
	}
	return rs
}

// summary is one benchmark's samples on one side, reduced to quartiles.
type summary struct {
	Name           string
	Q1, Median, Q3 float64 // ns/op
	Allocs         float64 // median allocs/op
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summarize reduces each benchmark's samples in rs, in first-seen order.
func summarize(rs []result) []summary {
	var order []string
	ns, allocs := map[string][]float64{}, map[string][]float64{}
	for _, r := range rs {
		if _, ok := ns[r.Name]; !ok {
			order = append(order, r.Name)
		}
		ns[r.Name] = append(ns[r.Name], r.NsPerOp)
		allocs[r.Name] = append(allocs[r.Name], r.AllocsPerOp)
	}
	out := make([]summary, 0, len(order))
	for _, name := range order {
		t, a := ns[name], allocs[name]
		slices.Sort(t)
		slices.Sort(a)
		out = append(out, summary{Name: name, Q1: quantile(t, 0.25), Median: quantile(t, 0.5),
			Q3: quantile(t, 0.75), Allocs: quantile(a, 0.5)})
	}
	return out
}

func find(ss []summary, name string) *summary {
	for i := range ss {
		if ss[i].Name == name {
			return &ss[i]
		}
	}
	return nil
}

// regressions returns one line per broken budget of the change against the
// base, given each side's samples in pair order. Benchmarks only the change
// has are new and pass; benchmarks that vanished fail, or a dropped
// benchmark would hide its regression for good.
func regressions(change, base []result) []string {
	cur, prev := summarize(change), summarize(base)
	var bad []string
	for _, p := range prev {
		c := find(cur, p.Name)
		if c == nil {
			bad = append(bad, fmt.Sprintf("%s: measured on the base but not on the change", p.Name))
			continue
		}
		if c.Median > p.Median*maxRatio {
			bad = append(bad, fmt.Sprintf("%s: %.4g ns/op vs base %.4g (%+.1f%%, limit +%.0f%%)",
				p.Name, c.Median, p.Median, 100*(c.Median/p.Median-1), 100*(maxRatio-1)))
		}
		switch {
		case p.Allocs == 0 && c.Allocs > 0:
			// The zero-alloc kernels' contract: no percentage expresses it.
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op vs base 0 (zero-alloc claim broken)", p.Name, c.Allocs))
		case c.Allocs > p.Allocs*maxRatio:
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op vs base %.0f (%+.1f%%, limit +%.0f%%)",
				p.Name, c.Allocs, p.Allocs, 100*(c.Allocs/p.Allocs-1), 100*(maxRatio-1)))
		}
	}
	if r, ok := flightRatio(change); ok && r > flightBudget {
		bad = append(bad, fmt.Sprintf("flight recorder: %s/%s = %.3f, limit %.2f", flightBench, bareBench, r, flightBudget))
	}
	return bad
}

// flightRatio is the median over pairs of EngineChurnFlight over
// EngineChurnBare in rs, one side's samples in pair order. The two samples
// of a pair run one other run apart, so host noise slower than that
// cancels out of each ratio.
func flightRatio(rs []result) (float64, bool) {
	var bare, flight []float64
	for _, r := range rs {
		switch r.Name {
		case bareBench:
			bare = append(bare, r.NsPerOp)
		case flightBench:
			flight = append(flight, r.NsPerOp)
		}
	}
	if len(bare) == 0 || len(bare) != len(flight) {
		return 0, false
	}
	ratios := make([]float64, len(bare))
	for i := range bare {
		ratios[i] = flight[i] / bare[i]
	}
	slices.Sort(ratios)
	return quantile(ratios, 0.5), true
}

// checkout writes the tree of rev into dir.
func checkout(rev, dir string) error {
	tarball := dir + ".tar"
	if out, err := exec.Command("git", "archive", "-o", tarball, rev).CombinedOutput(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, out)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if out, err := exec.Command("tar", "-x", "-f", tarball, "-C", dir).CombinedOutput(); err != nil {
		return fmt.Errorf("extract %s: %v: %s", rev, err, out)
	}
	return os.Remove(tarball)
}

// side is one tree under test: its source root and built test binaries.
type side struct {
	label, root string
	bins        map[string]string // package → test binary
	samples     []result
}

func (s *side) build(tmp string) error {
	s.bins = map[string]string{}
	for _, b := range benchmarks {
		if _, ok := s.bins[b.pkg]; ok {
			continue
		}
		// -trimpath: identical source builds byte-identical binaries on
		// both sides, so their code layout differs only where the code does.
		bin := filepath.Join(tmp, s.label+"-"+filepath.Base(b.pkg)+".test")
		cmd := exec.Command("go", "test", "-c", "-trimpath", "-o", bin, b.pkg)
		cmd.Dir = s.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("%s: go test -c %s: %v: %s", s.label, b.pkg, err, out)
		}
		s.bins[b.pkg] = bin
	}
	return nil
}

// run takes one sample of benchmark i from the package's directory and
// returns the binary's output.
func (s *side) run(i, procs int) (string, error) {
	b := benchmarks[i]
	cmd := exec.Command(s.bins[b.pkg], "-test.run", "^$", "-test.bench", "^Benchmark"+b.name+"$",
		"-test.benchtime", strconv.Itoa(b.iters)+"x", "-test.benchmem",
		"-test.cpu", strconv.Itoa(procs), "-test.timeout", runTimeout)
	cmd.Dir = filepath.Join(s.root, b.pkg)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s: Benchmark%s: %v", s.label, b.name, err)
	}
	s.samples = append(s.samples, parse(string(out))...)
	return string(out), nil
}

// report tabulates both sides' medians and quartiles, then the verdict.
func report(base, change []result) (text string, pass bool) {
	bsum, csum := summarize(base), summarize(change)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %34s %34s %6s %14s\n", "benchmark", "base ns/op median [q1, q3]",
		"change ns/op median [q1, q3]", "ratio", "allocs/op")
	q := func(s *summary) string {
		if s == nil {
			return "-"
		}
		return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
	}
	for _, b := range benchmarks {
		bs, cs := find(bsum, b.name), find(csum, b.name)
		ratio, allocs := "-", "-"
		if bs != nil && cs != nil {
			ratio = fmt.Sprintf("%.3f", cs.Median/bs.Median)
			allocs = fmt.Sprintf("%.0f → %.0f", bs.Allocs, cs.Allocs)
		}
		fmt.Fprintf(&sb, "%-20s %34s %34s %6s %14s\n", b.name, q(bs), q(cs), ratio, allocs)
	}
	if r, ok := flightRatio(change); ok {
		fmt.Fprintf(&sb, "change %s/%s, median of pair ratios: %.3f (limit %.2f)\n",
			flightBench, bareBench, r, flightBudget)
	}
	bad := regressions(change, base)
	if len(bad) == 0 {
		fmt.Fprintf(&sb, "PASS: every median within %.2f× the base, zero-alloc rows at 0\n", maxRatio)
		return sb.String(), true
	}
	fmt.Fprintf(&sb, "FAIL: %d budget(s) broken\n", len(bad))
	for _, line := range bad {
		fmt.Fprintf(&sb, "  %s\n", line)
	}
	return sb.String(), false
}

func gate(rev, outPath string) (int, error) {
	start := time.Now()
	tmp, err := os.MkdirTemp("", "misar-bench-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)
	commit, err := exec.Command("git", "rev-parse", "--short", rev).Output()
	if err != nil {
		return 2, fmt.Errorf("git rev-parse %s: %v", rev, err)
	}
	base := &side{label: "base", root: filepath.Join(tmp, "base")}
	if err := checkout(rev, base.root); err != nil {
		return 2, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	change := &side{label: "change", root: wd}
	for _, s := range []*side{base, change} {
		if err := s.build(tmp); err != nil {
			return 2, err
		}
	}

	procs := runtime.GOMAXPROCS(0)
	cpu := ""
	for p := 0; p < pairs; p++ {
		fmt.Fprintf(os.Stderr, "misar-bench: pair %d/%d\n", p+1, pairs)
		order := []*side{base, change}
		if p%2 == 1 {
			order[0], order[1] = change, base
		}
		for i := range benchmarks {
			for _, s := range order {
				out, err := s.run(i, procs)
				if err != nil {
					return 2, err
				}
				if m := cpuLine.FindStringSubmatch(out); m != nil {
					cpu = m[1]
				}
			}
		}
	}

	table, pass := report(base.samples, change.samples)
	text := fmt.Sprintf("misar-bench: base %s (%s) vs the working tree, %d alternating pairs\n%s, GOMAXPROCS %d, cpu: %s\n%swall %.1f s\n",
		rev, strings.TrimSpace(string(commit)), pairs, runtime.Version(), procs, cpu, table, time.Since(start).Seconds())
	fmt.Print(text)
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(text), 0o644); err != nil {
			return 2, err
		}
	}
	if !pass {
		return 1, nil
	}
	return 0, nil
}

func main() {
	rev := flag.String("base", "HEAD", "git revision to measure the working tree against")
	out := flag.String("out", "", "also write the report to this file")
	flag.Parse()
	code, err := gate(*rev, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "misar-bench:", err)
	}
	os.Exit(code)
}
