package harness

import (
	"bytes"
	"testing"

	"misar/internal/machine"
	"misar/internal/sim"
	"misar/internal/stats"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// TestRunnerDeterminism is the Runner's core proof obligation: parallel
// execution must be an implementation detail. Each QuickOptions() app runs
// on MSA/OMU-2 twice serially and once through an 8-worker Runner; all
// three must agree on the final cycle count and coverage, and a table
// rendered from the Runner's results must be byte-identical to one
// rendered from the serial results.
func TestRunnerDeterminism(t *testing.T) {
	o := QuickOptions()
	tiles := o.Tiles[0]
	cfg := machine.MSAOMU(tiles, 2)

	r := NewRunner(8)
	runs := make(map[string]*Run, len(o.Apps))
	apps := make(map[string]workload.App, len(o.Apps))
	for _, name := range o.Apps {
		app, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown app %q", name)
		}
		apps[name] = app
		runs[name] = r.App(app, cfg, syncrt.HWLib())
	}

	serial := stats.NewTable("determinism", "Cycles", "Coverage %")
	viaRunner := stats.NewTable("determinism", "Cycles", "Coverage %")
	for _, name := range o.Apps {
		m1, c1, err := workload.Run(apps[name], cfg, syncrt.HWLib())
		if err != nil {
			t.Fatalf("%s serial run 1: %v", name, err)
		}
		m2, c2, err := workload.Run(apps[name], cfg, syncrt.HWLib())
		if err != nil {
			t.Fatalf("%s serial run 2: %v", name, err)
		}
		if c1 != c2 {
			t.Errorf("%s: serial runs disagree: %d vs %d cycles", name, c1, c2)
		}
		if m1.Coverage() != m2.Coverage() {
			t.Errorf("%s: serial coverage disagrees: %v vs %v", name, m1.Coverage(), m2.Coverage())
		}
		res, err := runs[name].Result()
		if err != nil {
			t.Fatalf("%s via Runner: %v", name, err)
		}
		if cp := sim.Time(res.Cycles); cp != c1 {
			t.Errorf("%s: Runner cycles %d != serial %d", name, cp, c1)
		}
		if res.Coverage != m1.Coverage() {
			t.Errorf("%s: Runner coverage %v != serial %v", name, res.Coverage, m1.Coverage())
		}
		serial.AddRow(name, float64(c1), m1.Coverage()*100)
		viaRunner.AddRow(name, float64(res.Cycles), res.Coverage*100)
	}

	var bs, bp bytes.Buffer
	serial.Render(&bs)
	viaRunner.Render(&bp)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Errorf("rendered tables differ:\nserial:\n%s\nrunner:\n%s", bs.String(), bp.String())
	}
}

// TestFig6SerialParallelIdentical renders the same figure serially and
// through an oversubscribed pool; the output must be byte-identical —
// same rows, same order, same formatting.
func TestFig6SerialParallelIdentical(t *testing.T) {
	o := QuickOptions()
	serial, err := NewRunner(1).Fig6(o)
	if err != nil {
		t.Fatalf("serial Fig6: %v", err)
	}
	parallel, err := NewRunner(8).Fig6(o)
	if err != nil {
		t.Fatalf("parallel Fig6: %v", err)
	}
	var bs, bp bytes.Buffer
	serial.Render(&bs)
	parallel.Render(&bp)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Errorf("serial and parallel Fig6 renderings differ:\nserial:\n%s\nparallel:\n%s",
			bs.String(), bp.String())
	}
}

// TestHeadlineSerialParallelIdentical repeats the byte-identity check on
// the Headline artifact, whose four configurations per app maximize
// in-flight interleaving within one figure.
func TestHeadlineSerialParallelIdentical(t *testing.T) {
	o := Options{Tiles: []int{8}, Apps: []string{"fluidanimate", "streamcluster"}}
	serial, err := NewRunner(1).Headline(o)
	if err != nil {
		t.Fatalf("serial Headline: %v", err)
	}
	parallel, err := NewRunner(8).Headline(o)
	if err != nil {
		t.Fatalf("parallel Headline: %v", err)
	}
	var bs, bp bytes.Buffer
	serial.Render(&bs)
	parallel.Render(&bp)
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Errorf("serial and parallel Headline renderings differ:\nserial:\n%s\nparallel:\n%s",
			bs.String(), bp.String())
	}
}

// TestMemoizedRunIdenticalToFresh: a memo hit must return exactly the
// result a fresh simulation would have produced.
func TestMemoizedRunIdenticalToFresh(t *testing.T) {
	app, ok := workload.ByName("fluidanimate")
	if !ok {
		t.Fatal("fluidanimate missing")
	}
	cfg := machine.MSAOMU(8, 2)
	r := NewRunner(4)
	first := r.App(app, cfg, syncrt.HWLib())
	second := r.App(app, cfg, syncrt.HWLib())
	if first != second {
		t.Fatal("identical submissions should share one *Run")
	}
	res, err := first.Result()
	if err != nil {
		t.Fatal(err)
	}
	c1 := sim.Time(res.Cycles)
	_, fresh, err := workload.Run(app, cfg, syncrt.HWLib())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != fresh {
		t.Errorf("memoized cycles %d != fresh simulation %d", c1, fresh)
	}
	if st := r.Stats(); st.Submitted != 2 || st.Unique != 1 {
		t.Errorf("stats = %+v, want 2 submissions / 1 unique", st)
	}
	// Distinct configs must not alias even when only a nested field
	// differs (the sweeps mutate fields without renaming).
	tweaked := cfg
	tweaked.MSA.OMUCounters++
	if r.App(app, tweaked, syncrt.HWLib()) == first {
		t.Error("config differing only in OMUCounters aliased in the cache")
	}
}
