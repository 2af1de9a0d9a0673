package harness

import (
	"strconv"
	"strings"
	"testing"

	"misar/internal/stats"
)

func quick() Options { return QuickOptions() }

// runFig executes a figure, failing the test on error.
func runFig(t *testing.T, fig func(Options) (*stats.Table, error), o Options) *stats.Table {
	t.Helper()
	tab, err := fig(o)
	if err != nil {
		t.Fatalf("figure failed: %v", err)
	}
	return tab
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", cell, err)
	}
	return v
}

func TestTable1Static(t *testing.T) {
	tab := Table1()
	if tab.Rows() != 13 {
		t.Fatalf("Table 1 rows = %d, want 13", tab.Rows())
	}
	cells, ok := tab.Lookup("MSA/OMU (this repo)")
	if !ok {
		t.Fatal("MSA/OMU row missing")
	}
	if cells[0] != "Lock, Barrier, CondVar" || cells[4] != "HW" {
		t.Fatalf("MSA/OMU row wrong: %v", cells)
	}
}

func TestFig5Quick(t *testing.T) {
	tab := runFig(t, Fig5, Options{Tiles: []int{8}})
	if tab.Rows() != 5 {
		t.Fatalf("rows = %d, want 5", tab.Rows())
	}
	// Contended handoff: MSA/OMU-2 (col 2) beats Pthread (col 0) and
	// Spinlock (col 4).
	for r := 0; r < tab.Rows(); r++ {
		if !strings.HasPrefix(tab.RowLabel(r), "LockHandoff") {
			continue
		}
		msa := cellFloat(t, tab.Cell(r, 2))
		pt := cellFloat(t, tab.Cell(r, 0))
		spin := cellFloat(t, tab.Cell(r, 4))
		if msa >= pt || msa >= spin {
			t.Errorf("handoff: msa=%.0f pt=%.0f spin=%.0f", msa, pt, spin)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	tab := runFig(t, Fig6, quick())
	cells, ok := tab.Lookup("GeoMean/8c")
	if !ok {
		t.Fatal("GeoMean row missing")
	}
	// Columns: MSA-0, MCS-Tour, MSA/OMU-1, MSA/OMU-2, MSA-inf, Ideal.
	msa0 := cellFloat(t, cells[0])
	omu2 := cellFloat(t, cells[3])
	inf := cellFloat(t, cells[4])
	ideal := cellFloat(t, cells[5])
	if omu2 <= 1.0 {
		t.Errorf("MSA/OMU-2 geomean %.2f should show speedup on sync-heavy subset", omu2)
	}
	if msa0 < 0.90 || msa0 > 1.10 {
		t.Errorf("MSA-0 geomean %.2f should be close to baseline", msa0)
	}
	if ideal < inf*0.95 {
		t.Errorf("Ideal (%.2f) should be at least MSA-inf (%.2f)", ideal, inf)
	}
}

func TestFig6UnknownAppIsError(t *testing.T) {
	_, err := Fig6(Options{Tiles: []int{8}, Apps: []string{"no-such-app"}})
	if err == nil || !strings.Contains(err.Error(), "no-such-app") {
		t.Fatalf("want unknown-app error, got %v", err)
	}
}

func TestFig7Quick(t *testing.T) {
	tab := runFig(t, Fig7, quick())
	for r := 0; r < tab.Rows(); r++ {
		without := cellFloat(t, tab.Cell(r, 0))
		with := cellFloat(t, tab.Cell(r, 1))
		if with <= without {
			t.Errorf("%s: coverage with OMU (%.1f) should beat without (%.1f)",
				tab.RowLabel(r), with, without)
		}
		if with < 50 {
			t.Errorf("%s: coverage with OMU only %.1f%%", tab.RowLabel(r), with)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	tab := runFig(t, Fig8, Options{Tiles: []int{8}})
	with := cellFloat(t, tab.Cell(0, 0))
	without := cellFloat(t, tab.Cell(0, 1))
	if with <= without {
		t.Errorf("HWSync optimization should help fluidanimate: with=%.3f without=%.3f", with, without)
	}
}

func TestFig9Quick(t *testing.T) {
	tab := runFig(t, Fig9, quick())
	// streamcluster (barrier app): lock-only loses the win.
	cells, ok := tab.Lookup("streamcluster")
	if !ok {
		t.Fatal("streamcluster row missing")
	}
	full := cellFloat(t, cells[0])
	lockOnly := cellFloat(t, cells[1])
	barrierOnly := cellFloat(t, cells[2])
	if lockOnly >= full*0.98 {
		t.Errorf("streamcluster: lock-only (%.2f) should lose vs full (%.2f)", lockOnly, full)
	}
	if barrierOnly < full*0.9 {
		t.Errorf("streamcluster: barrier-only (%.2f) should retain most of full (%.2f)", barrierOnly, full)
	}
}

func TestAblationsQuick(t *testing.T) {
	o := Options{Tiles: []int{8}}
	if tab := runFig(t, OMUSweep, o); tab.Rows() != 5 {
		t.Error("OMU sweep rows")
	}
	if tab := runFig(t, EntrySweep, o); tab.Rows() != 5 {
		t.Error("entry sweep rows")
	}
	if tab := runFig(t, BloomSweep, o); tab.Rows() != 4 {
		t.Error("bloom sweep rows")
	}
	ftab := runFig(t, Fairness, o)
	min := cellFloat(t, ftab.Cell(0, 0))
	max := cellFloat(t, ftab.Cell(0, 1))
	if max > min*1.5+8 {
		t.Errorf("NBTC fairness poor: min=%.0f max=%.0f", min, max)
	}
	stab := runFig(t, SuspendStress, o)
	for r := 0; r < stab.Rows(); r++ {
		if stab.Cell(r, 2) != "yes" {
			t.Errorf("%s: counter check failed", stab.RowLabel(r))
		}
	}
	// Disturbance must trigger aborts.
	if stab.Cell(1, 1) == "0" {
		t.Error("suspend stress recorded no aborts")
	}
}

func TestHeadlineQuick(t *testing.T) {
	tab := runFig(t, Headline, quick())
	if tab.Rows() != 4 {
		t.Fatal("headline rows")
	}
	speedup := cellFloat(t, tab.Cell(0, 0))
	coverage := cellFloat(t, tab.Cell(1, 0))
	if speedup <= 1.0 {
		t.Errorf("headline speedup %.2f <= 1 on sync-heavy subset", speedup)
	}
	if coverage < 60 {
		t.Errorf("headline coverage %.1f%% too low", coverage)
	}
}

// TestSharedRunnerMemoizesAcrossFigures drives Fig8 and Headline through
// one Runner: the pthread baseline and the MSA/OMU-2 run for fluidanimate
// appear in both, so the shared cache must record fewer unique simulations
// than submissions.
func TestSharedRunnerMemoizesAcrossFigures(t *testing.T) {
	o := Options{Tiles: []int{8}, Apps: []string{"fluidanimate"}}
	r := NewRunner(4)
	runFig(t, r.Fig8, o)
	runFig(t, r.Headline, o)
	st := r.Stats()
	// Fig8 submits 3 runs, Headline 4; baseline and MSA/OMU-2 are shared.
	if st.Submitted != 7 {
		t.Errorf("submitted = %d, want 7", st.Submitted)
	}
	if st.Unique != 5 {
		t.Errorf("unique = %d, want 5 (baseline and MSA/OMU-2 shared)", st.Unique)
	}
	if st.Done != st.Unique {
		t.Errorf("done = %d, want %d", st.Done, st.Unique)
	}
}
