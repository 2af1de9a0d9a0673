// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (§6), plus the ablations listed in DESIGN.md. Each
// experiment returns a stats.Table whose rows/series match what the paper
// reports; cmd/misar-fig renders them and the bench module times them.
//
// Experiments execute through a Runner: a worker pool with a memoization
// cache, so sweeps run in parallel and shared runs (notably the pthread
// baseline, which Fig6/Fig8/Fig9/Headline all normalize against) are
// simulated exactly once per Runner. The package-level Fig* functions are
// conveniences that build a private Runner from Options.Parallel; to share
// the cache across several figures, build one Runner and call its methods.
// Tables are assembled on the calling goroutine in the same row/column
// order as the original serial implementation, so serial (Parallel <= 1)
// and parallel runs render byte-identical output.
package harness

import (
	"fmt"

	"misar/internal/cpu"
	"misar/internal/machine"
	"misar/internal/stats"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// Options scales experiments: the full paper configuration is Tiles =
// {16, 64} over the whole suite, which takes a while on one host; tests use
// smaller settings.
type Options struct {
	Tiles []int    // core counts to evaluate (paper: 16 and 64)
	Apps  []string // subset of app names; nil = full suite
	// Parallel is the worker-pool size used when a package-level Fig*
	// function builds its own Runner; values < 1 (including the zero
	// value) mean serial. Figures invoked as Runner methods use that
	// Runner's pool instead.
	Parallel int
}

// DefaultOptions reproduces the paper's configuration.
func DefaultOptions() Options {
	return Options{Tiles: []int{16, 64}}
}

// QuickOptions is a reduced configuration for tests and smoke runs.
func QuickOptions() Options {
	return Options{
		Tiles: []int{8},
		Apps:  []string{"radiosity", "ocean-nc", "fluidanimate", "streamcluster"},
	}
}

func (o Options) appList() ([]workload.App, error) {
	suite := workload.Suite()
	if o.Apps == nil {
		return suite, nil
	}
	var out []workload.App
	for _, name := range o.Apps {
		a, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown app %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// ShardTransform returns a config transform (see Runner.SetConfigTransform)
// that runs every compatible simulation on the conservative parallel kernel
// with the given shard count. Configurations the sharded kernel rejects —
// Ideal mode's zero-latency sync tables, fault plans, meshes whose height
// the shard count does not divide — fall back to the serial kernel, so a
// whole figure sweep can be flipped with one call and still render. Each shard count is a deterministic pure function of the
// configuration, pinned by its own golden file; it is NOT guaranteed to be
// cycle-identical to the serial kernel under same-cycle contention — see
// DESIGN.md §14 and TestShardedFigureDivergencePinned for the rationale.
func ShardTransform(shards int) func(machine.Config) machine.Config {
	return func(c machine.Config) machine.Config {
		sharded := c
		sharded.Shards = shards
		if machine.Validate(sharded) != nil {
			return c
		}
		return sharded
	}
}

// configEntry names a machine+library combination under evaluation.
type configEntry struct {
	name string
	cfg  func(tiles int) machine.Config
	lib  func() *syncrt.Lib
}

func baselineCfg(tiles int) machine.Config {
	c := machine.Default(tiles)
	c.Name = "pthread"
	c.CPU.Mode = cpu.ModeAlwaysFail
	return c
}

// fig6Configs is the paper's Fig. 6 series (speedup is vs the pthread
// baseline, which is run separately as the denominator).
func fig6Configs() []configEntry {
	return []configEntry{
		{"MSA-0", machine.MSA0, syncrt.HWLib},
		{"MCS-Tour", baselineCfg, syncrt.MCSTourLib},
		{"MSA/OMU-1", func(t int) machine.Config { return machine.MSAOMU(t, 1) }, syncrt.HWLib},
		{"MSA/OMU-2", func(t int) machine.Config { return machine.MSAOMU(t, 2) }, syncrt.HWLib},
		{"MSA-inf", machine.MSAInf, syncrt.HWLib},
		{"Ideal", machine.Ideal, syncrt.HWLib},
	}
}

// Package-level conveniences: each builds a private Runner sized by
// o.Parallel and runs the figure through it.

func Fig5(o Options) (*stats.Table, error)     { return NewRunner(o.Parallel).Fig5(o) }
func Fig6(o Options) (*stats.Table, error)     { return NewRunner(o.Parallel).Fig6(o) }
func Fig7(o Options) (*stats.Table, error)     { return NewRunner(o.Parallel).Fig7(o) }
func Fig8(o Options) (*stats.Table, error)     { return NewRunner(o.Parallel).Fig8(o) }
func Fig9(o Options) (*stats.Table, error)     { return NewRunner(o.Parallel).Fig9(o) }
func Headline(o Options) (*stats.Table, error) { return NewRunner(o.Parallel).Headline(o) }

// Fig5 reproduces Figure 5: raw synchronization latency (cycles, the paper
// plots it on a log scale) for five operations × five schemes × core
// counts.
func (r *Runner) Fig5(o Options) (*stats.Table, error) {
	t := stats.NewTable("Fig5: raw latency (cycles)",
		"Pthread", "MSA-0", "MSA/OMU-2", "MCS-Tour", "Spinlock")
	type scheme struct {
		cfg func(int) machine.Config
		lib func() *syncrt.Lib
	}
	schemes := []scheme{
		{baselineCfg, syncrt.PthreadLib},
		{machine.MSA0, syncrt.HWLib},
		{func(t int) machine.Config { return machine.MSAOMU(t, 2) }, syncrt.HWLib},
		{baselineCfg, syncrt.MCSTourLib},
		{baselineCfg, syncrt.SpinLib},
	}
	kinds := []struct {
		name string
		run  MicroFn
	}{
		{"LockAcquire", workload.MicroLockAcquire},
		{"LockHandoff", workload.MicroLockHandoff},
		{"BarrierHandoff", workload.MicroBarrierHandoff},
		{"CondSignal", workload.MicroCondSignal},
		{"CondBroadcast", workload.MicroCondBroadcast},
	}
	type tableRow struct {
		label string
		runs  []*Run
	}
	var rows []tableRow
	for _, k := range kinds {
		for _, tiles := range o.Tiles {
			runs := make([]*Run, len(schemes))
			for i, s := range schemes {
				runs[i] = r.Micro(k.name, k.run, s.cfg(tiles), s.lib())
			}
			rows = append(rows, tableRow{fmt.Sprintf("%s/%dc", k.name, tiles), runs})
		}
	}
	for _, row := range rows {
		cells := make([]float64, len(row.runs))
		for i, run := range row.runs {
			res, err := run.Micro()
			if err != nil {
				return nil, err
			}
			cells[i] = res.Cycles
		}
		t.AddRow(row.label, cells...)
	}
	return t, nil
}

// Fig6 reproduces Figure 6: whole-application speedup over the pthread
// baseline for each configuration, per benchmark and geomean.
func (r *Runner) Fig6(o Options) (*stats.Table, error) {
	cfgs := fig6Configs()
	apps, err := o.appList()
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(cfgs))
	for i, c := range cfgs {
		cols[i] = c.name
	}
	t := stats.NewTable("Fig6: speedup vs pthread", cols...)
	type appRow struct {
		app  workload.App
		base *Run
		runs []*Run
	}
	rowsByTiles := make([][]appRow, len(o.Tiles))
	for ti, tiles := range o.Tiles {
		for _, app := range apps {
			ar := appRow{app: app, base: r.App(app, baselineCfg(tiles), syncrt.PthreadLib())}
			for _, c := range cfgs {
				ar.runs = append(ar.runs, r.App(app, c.cfg(tiles), c.lib()))
			}
			rowsByTiles[ti] = append(rowsByTiles[ti], ar)
		}
	}
	for ti, tiles := range o.Tiles {
		speedups := make([][]float64, len(cfgs))
		for _, ar := range rowsByTiles[ti] {
			base, err := ar.base.Result()
			if err != nil {
				return nil, err
			}
			cells := make([]float64, len(cfgs))
			for i, run := range ar.runs {
				res, err := run.Result()
				if err != nil {
					return nil, err
				}
				cells[i] = float64(base.Cycles) / float64(res.Cycles)
				speedups[i] = append(speedups[i], cells[i])
			}
			if ar.app.SyncSensitive {
				t.AddRow(fmt.Sprintf("%s/%dc", ar.app.Name, tiles), cells...)
			}
		}
		geo := make([]float64, len(cfgs))
		for i := range cfgs {
			geo[i] = stats.Geomean(speedups[i])
		}
		t.AddRow(fmt.Sprintf("GeoMean/%dc", tiles), geo...)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: percentage of synchronization operations
// handled by the MSA with and without the OMU, for 1- and 2-entry slices.
func (r *Runner) Fig7(o Options) (*stats.Table, error) {
	apps, err := o.appList()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig7: MSA coverage (%)", "Without OMU", "With OMU")
	type pointRow struct {
		label         string
		with, without []*Run
	}
	var rows []pointRow
	for _, entries := range []int{1, 2} {
		for _, tiles := range o.Tiles {
			row := pointRow{label: fmt.Sprintf("MSA-%d/%dc", entries, tiles)}
			for _, app := range apps {
				row.with = append(row.with, r.App(app, machine.MSAOMU(tiles, entries), syncrt.HWLib()))
				row.without = append(row.without, r.App(app, machine.WithoutOMU(machine.MSAOMU(tiles, entries)), syncrt.HWLib()))
			}
			rows = append(rows, row)
		}
	}
	for _, row := range rows {
		var with, without []float64
		for i := range row.with {
			rw, err := row.with[i].Result()
			if err != nil {
				return nil, err
			}
			with = append(with, rw.Coverage*100)
			ro, err := row.without[i].Result()
			if err != nil {
				return nil, err
			}
			without = append(without, ro.Coverage*100)
		}
		t.AddRow(row.label, stats.Mean(without), stats.Mean(with))
	}
	return t, nil
}

// Fig8 reproduces Figure 8: fluidanimate speedup with and without the
// HWSync-bit optimization.
func (r *Runner) Fig8(o Options) (*stats.Table, error) {
	t := stats.NewTable("Fig8: fluidanimate speedup", "With Optimization", "Without Optimization")
	app, ok := workload.ByName("fluidanimate")
	if !ok {
		return nil, fmt.Errorf("harness: fluidanimate missing from suite")
	}
	type tileRuns struct {
		base, with, without *Run
	}
	runs := make([]tileRuns, len(o.Tiles))
	for i, tiles := range o.Tiles {
		runs[i] = tileRuns{
			base:    r.App(app, baselineCfg(tiles), syncrt.PthreadLib()),
			with:    r.App(app, machine.MSAOMU(tiles, 2), syncrt.HWLib()),
			without: r.App(app, machine.WithoutHWSync(machine.MSAOMU(tiles, 2)), syncrt.HWLib()),
		}
	}
	for i, tiles := range o.Tiles {
		base, err := runs[i].base.Result()
		if err != nil {
			return nil, err
		}
		with, err := runs[i].with.Result()
		if err != nil {
			return nil, err
		}
		without, err := runs[i].without.Result()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("fluidanimate/%dc", tiles),
			float64(base.Cycles)/float64(with.Cycles), float64(base.Cycles)/float64(without.Cycles))
	}
	return t, nil
}

// Fig9 reproduces Figure 9: speedup when the MSA supports only locks or
// only barriers, at the paper's 64-core point (o.Tiles[last] here).
func (r *Runner) Fig9(o Options) (*stats.Table, error) {
	apps, err := o.appList()
	if err != nil {
		return nil, err
	}
	tiles := o.Tiles[len(o.Tiles)-1]
	t := stats.NewTable(fmt.Sprintf("Fig9: %dc speedup", tiles),
		"MSA/OMU-2", "MSA-LockOnly", "MSA-BarrierOnly")
	cfgs := []machine.Config{
		machine.MSAOMU(tiles, 2),
		machine.LockOnly(machine.MSAOMU(tiles, 2)),
		machine.BarrierOnly(machine.MSAOMU(tiles, 2)),
	}
	type appRow struct {
		app  workload.App
		base *Run
		runs [3]*Run
	}
	rows := make([]appRow, 0, len(apps))
	for _, app := range apps {
		ar := appRow{app: app, base: r.App(app, baselineCfg(tiles), syncrt.PthreadLib())}
		for i, cfg := range cfgs {
			ar.runs[i] = r.App(app, cfg, syncrt.HWLib())
		}
		rows = append(rows, ar)
	}
	var speedups [3][]float64
	for _, ar := range rows {
		base, err := ar.base.Result()
		if err != nil {
			return nil, err
		}
		cells := make([]float64, 3)
		for i, run := range ar.runs {
			res, err := run.Result()
			if err != nil {
				return nil, err
			}
			cells[i] = float64(base.Cycles) / float64(res.Cycles)
			speedups[i] = append(speedups[i], cells[i])
		}
		if ar.app.SyncSensitive {
			t.AddRow(ar.app.Name, cells...)
		}
	}
	t.AddRow("GeoMean", stats.Geomean(speedups[0][:]), stats.Geomean(speedups[1][:]), stats.Geomean(speedups[2][:]))
	return t, nil
}

// Headline reproduces the abstract's claims: MSA/OMU-2 speedup over
// pthreads, coverage, and distance from Ideal.
func (r *Runner) Headline(o Options) (*stats.Table, error) {
	apps, err := o.appList()
	if err != nil {
		return nil, err
	}
	tiles := o.Tiles[len(o.Tiles)-1]
	t := stats.NewTable(fmt.Sprintf("Headline @ %dc", tiles), "Value")
	type appRow struct {
		base, hw, inf, ideal *Run
	}
	rows := make([]appRow, 0, len(apps))
	for _, app := range apps {
		rows = append(rows, appRow{
			base:  r.App(app, baselineCfg(tiles), syncrt.PthreadLib()),
			hw:    r.App(app, machine.MSAOMU(tiles, 2), syncrt.HWLib()),
			inf:   r.App(app, machine.MSAInf(tiles), syncrt.HWLib()),
			ideal: r.App(app, machine.Ideal(tiles), syncrt.HWLib()),
		})
	}
	var speedups, infIdeal, omuInf, coverage []float64
	for _, ar := range rows {
		base, err := ar.base.Result()
		if err != nil {
			return nil, err
		}
		hw, err := ar.hw.Result()
		if err != nil {
			return nil, err
		}
		inf, err := ar.inf.Result()
		if err != nil {
			return nil, err
		}
		ideal, err := ar.ideal.Result()
		if err != nil {
			return nil, err
		}
		speedups = append(speedups, float64(base.Cycles)/float64(hw.Cycles))
		infIdeal = append(infIdeal, float64(inf.Cycles)/float64(ideal.Cycles))
		omuInf = append(omuInf, float64(hw.Cycles)/float64(inf.Cycles))
		coverage = append(coverage, hw.Coverage*100)
	}
	t.AddRow("GeoMean MSA/OMU-2 speedup vs pthread (paper: 1.43x)", stats.Geomean(speedups))
	t.AddRow("Mean MSA coverage % (paper: 93%)", stats.Mean(coverage))
	t.AddRow("MSA-inf slowdown vs Ideal (paper: within ~3%)", stats.Geomean(infIdeal))
	t.AddRow("MSA/OMU-2 slowdown vs MSA-inf (paper: similar)", stats.Geomean(omuInf))
	return t, nil
}
