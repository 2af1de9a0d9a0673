package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"misar/internal/machine"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

func mustApp(t testing.TB, name string) workload.App {
	t.Helper()
	app, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("app %q missing from suite", name)
	}
	return app
}

// TestMetricsReportDeterminism extends the determinism proof to the
// observability layer: the full JSON report of a metered run — every
// counter, gauge, and histogram — must be byte-identical whether the
// simulation ran serially via workload.Run or inside an 8-worker Runner.
func TestMetricsReportDeterminism(t *testing.T) {
	o := QuickOptions()
	tiles := o.Tiles[0]
	cfg := machine.MSAOMU(tiles, 2)
	cfg.Metrics = true

	r := NewRunner(8)
	r.EnableMetrics()
	runs := make(map[string]*Run, len(o.Apps))
	for _, name := range o.Apps {
		runs[name] = r.App(mustApp(t, name), machine.MSAOMU(tiles, 2), syncrt.HWLib())
	}

	for _, name := range o.Apps {
		lib := syncrt.HWLib()
		m, _, err := workload.Run(mustApp(t, name), cfg, lib)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		serial := m.MetricsReport("app", name, lib.Desc())
		if serial == nil {
			t.Fatalf("%s: metered serial run produced no report", name)
		}
		if _, err := runs[name].Result(); err != nil {
			t.Fatalf("%s via Runner: %v", name, err)
		}
		parallel := runs[name].Report()
		if parallel == nil {
			t.Fatalf("%s: metered Runner run produced no report", name)
		}
		var bs, bp bytes.Buffer
		if err := serial.WriteJSON(&bs); err != nil {
			t.Fatal(err)
		}
		if err := parallel.WriteJSON(&bp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
			t.Errorf("%s: serial and parallel reports differ:\n%s\n----\n%s",
				name, bs.String(), bp.String())
		}
	}
}

// TestSteerConsistency asserts the counters reflect the paper's overflow
// mechanism: with unbounded entries nothing is ever steered to software,
// and with a single entry per slice a lock-heavy workload must overflow.
func TestSteerConsistency(t *testing.T) {
	app := mustApp(t, "fluidanimate")
	steers := func(cfg machine.Config) uint64 {
		cfg.Metrics = true
		lib := syncrt.HWLib()
		m, _, err := workload.Run(app, cfg, lib)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		rep := m.MetricsReport("app", app.Name, lib.Desc())
		c := rep.Metrics.Counters
		return c["msa.omu_steers"] + c["msa.capacity_steers"]
	}
	if got := steers(machine.MSAInf(8)); got != 0 {
		t.Errorf("MSA-inf steered %d operations; ample entries must never overflow", got)
	}
	if got := steers(machine.MSAOMU(8, 1)); got == 0 {
		t.Error("MSA/OMU-1 on a lock-heavy app steered nothing; overflow management never engaged")
	}
}

// TestMeteredCyclesMatchUnmetered: metering must observe, never perturb.
// The simulated outcome of a run is identical with and without a registry
// attached.
func TestMeteredCyclesMatchUnmetered(t *testing.T) {
	app := mustApp(t, "streamcluster")
	cfg := machine.MSAOMU(8, 2)
	_, plain, err := workload.Run(app, cfg, syncrt.HWLib())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = true
	m, metered, err := workload.Run(app, cfg, syncrt.HWLib())
	if err != nil {
		t.Fatal(err)
	}
	if plain != metered {
		t.Errorf("metering changed the simulation: %d vs %d cycles", plain, metered)
	}
	rep := m.MetricsReport("app", app.Name, syncrt.HWLib().Desc())
	if rep.Cycles != uint64(metered) {
		t.Errorf("report cycles %d != run cycles %d", rep.Cycles, metered)
	}
	if rep.Metrics.Counters["cpu.sync_issued.LOCK"] == 0 {
		t.Error("no LOCK issues recorded on a lock-using app")
	}
}

// TestRunnerReportsOrderAndMemo: Reports() returns one report per unique
// metered run in submission order, with memo hits deduplicated; Micro runs
// deliver their reports the same way.
func TestRunnerReportsOrderAndMemo(t *testing.T) {
	r := NewRunner(4)
	r.EnableMetrics()
	cfg := machine.MSAOMU(8, 2)
	app := mustApp(t, "fluidanimate")
	r.App(app, cfg, syncrt.HWLib())
	r.App(app, cfg, syncrt.HWLib()) // memo hit: must not duplicate
	r.Micro("LockAcquire", workload.MicroLockAcquire, machine.MSAOMU(8, 2), syncrt.HWLib())
	reps := r.Reports()
	if len(reps) != 2 {
		t.Fatalf("Reports() = %d entries, want 2 (memo hit deduplicated)", len(reps))
	}
	if reps[0].Kind != "app" || reps[0].App != "fluidanimate" {
		t.Errorf("first report = %s/%s, want the app run", reps[0].Kind, reps[0].App)
	}
	if reps[1].Kind != "micro" || reps[1].App != "LockAcquire" {
		t.Errorf("second report = %s/%s, want the micro run", reps[1].Kind, reps[1].App)
	}
	for _, rep := range reps {
		if len(rep.Metrics.Counters) == 0 {
			t.Errorf("%s/%s report has no counters", rep.Kind, rep.App)
		}
	}
}

// TestSyncOverheadTable checks the derived breakdown: it is computed purely
// from counters, the MSA/OMU-2 rows show hardware coverage the pthread rows
// cannot, and serial/parallel renderings agree byte-for-byte.
func TestSyncOverheadTable(t *testing.T) {
	o := Options{Tiles: []int{8}, Apps: []string{"fluidanimate", "streamcluster"}}
	serial, err := NewRunner(1).SyncOverhead(o)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(8).SyncOverhead(o)
	if err != nil {
		t.Fatal(err)
	}
	var bs, bp bytes.Buffer
	serial.Render(&bs)
	parallel.Render(&bp)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Errorf("serial and parallel SyncOverhead differ:\n%s\n----\n%s", bs.String(), bp.String())
	}
	const hwCol = 4 // "HW%"
	for i := 0; i < serial.Rows(); i++ {
		label := serial.RowLabel(i)
		hw, err := strconv.ParseFloat(serial.Cell(i, hwCol), 64)
		if err != nil {
			t.Fatalf("%s: HW%% cell %q not numeric", label, serial.Cell(i, hwCol))
		}
		if strings.HasSuffix(label, "pthread") {
			if hw != 0 {
				t.Errorf("%s: HW%% = %v, software baseline must be 0", label, hw)
			}
		} else if hw <= 50 { // MSA/OMU-2 rows
			t.Errorf("%s: HW%% = %v, accelerator should cover most operations", label, hw)
		}
	}
}

// BenchmarkRunMetered / BenchmarkRunUnmetered quantify the metering tax on
// a full simulation (the issue's <5% regression criterion): compare
// benchmark results of the two. The nil-instrument zero-allocation half is
// TestNilInstrumentsZeroAlloc in internal/metrics.
func BenchmarkRunUnmetered(b *testing.B) { benchRun(b, false) }
func BenchmarkRunMetered(b *testing.B)   { benchRun(b, true) }

func benchRun(b *testing.B, metered bool) {
	app := mustApp(b, "fluidanimate")
	cfg := machine.MSAOMU(16, 2)
	cfg.Metrics = metered
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := workload.Run(app, cfg, syncrt.HWLib()); err != nil {
			b.Fatal(err)
		}
	}
}
