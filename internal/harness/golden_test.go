package harness

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"misar/internal/stats"
)

// goldenOptions is the sweep pinned by testdata/golden_figs_16_64c.txt: every
// headline figure at both evaluation scales with the four fastest apps.
func goldenOptions() Options {
	return Options{
		Tiles: []int{16, 64},
		Apps:  []string{"radiosity", "ocean-nc", "fluidanimate", "streamcluster"},
	}
}

// renderFigs renders Fig. 5–9 through one Runner in figure order, exactly as
// cmd/misar-fig does.
func renderFigs(t *testing.T, r *Runner, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fig := range []func(Options) (*stats.Table, error){r.Fig5, r.Fig6, r.Fig7, r.Fig8, r.Fig9} {
		tbl, err := fig(o)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Render(&buf)
	}
	return buf.Bytes()
}

// TestGoldenFiguresMatchSeedKernel is the golden-equivalence proof for the
// pooled event kernel and the allocation-free NoC walk: the rendered
// Fig. 5–9 tables at 16 and 64 tiles must be byte-identical to
// testdata/golden_figs_16_64c.txt, which was generated by the seed kernel
// (container/heap engine, closure-per-hop NoC) at commit 6fedd5c. Any timing
// drift in the kernel rewrite — heap ordering, pool recycling, event
// structure of the hop walk — shows up here as a byte diff.
func TestGoldenFiguresMatchSeedKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("renders ten full figure sweeps (~20s)")
	}
	want, err := os.ReadFile("testdata/golden_figs_16_64c.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := renderFigs(t, NewRunner(runtime.NumCPU()), goldenOptions())
	if !bytes.Equal(got, want) {
		t.Fatalf("figure tables diverged from the seed kernel golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenFiguresMatchSharded pins the conservative parallel kernel's
// timelines: the full Fig. 5–9 sweep rendered with every compatible
// simulation running sharded must be byte-identical to the checked-in
// per-shard-count golden (testdata/golden_figs_16_64c_shards{2,4}.txt).
// Each shard count is a deterministic pure function of the configuration —
// worker interleaving must never leak into results — so any drift in the
// window protocol, injection order, or metrics merge shows up as a byte
// diff here, exactly as serial kernel drift does against the seed golden.
func TestGoldenFiguresMatchSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("renders full figure sweeps per shard count")
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			want, err := os.ReadFile(fmt.Sprintf("testdata/golden_figs_16_64c_shards%d.txt", shards))
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(runtime.NumCPU())
			r.SetConfigTransform(ShardTransform(shards))
			got := renderFigs(t, r, goldenOptions())
			if !bytes.Equal(got, want) {
				t.Fatalf("figure tables diverged from the %d-shard golden:\n--- got ---\n%s\n--- want ---\n%s", shards, got, want)
			}
		})
	}
}

// TestShardedFigureDivergencePinned pins the measured fact that the sharded
// kernel is NOT cycle-identical to the serial kernel under same-cycle
// contention, and why that is acceptable: the serial kernel breaks
// same-cycle ties by global heap insertion order across all tiles — an
// ordering a parallel run cannot observe — while the sharded kernel orders
// same-cycle cross-shard arrivals by (time, source shard, sequence). Both
// are legal schedules of the same physical machine; each is individually
// deterministic and pinned by its own golden. The contended Fig. 5
// microbenchmarks (LockHandoff, CondBroadcast storms) surface the tie-break
// difference; if this test ever fails, the two kernels have converged and
// the sharded goldens should collapse into the seed golden — see
// DESIGN.md §14.
func TestShardedFigureDivergencePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two Fig. 5 sweeps")
	}
	o := goldenOptions()
	var serial, sharded bytes.Buffer

	tbl, err := NewRunner(runtime.NumCPU()).Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(&serial)

	r := NewRunner(runtime.NumCPU())
	r.SetConfigTransform(ShardTransform(2))
	tbl, err = r.Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(&sharded)

	if bytes.Equal(serial.Bytes(), sharded.Bytes()) {
		t.Fatal("sharded Fig. 5 now matches the serial kernel byte-for-byte; the tie-break divergence has converged — collapse the sharded goldens into the seed golden and update DESIGN.md §14")
	}
}
