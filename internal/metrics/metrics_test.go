package metrics

import (
	"encoding/json"
	"testing"

	"misar/internal/stats"
)

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Observe(9)
	h.Observe(3)
	h.Merge(&stats.Histogram{})
	if c.Value() != 0 || g.Value() != 0 || h.Hist() != nil {
		t.Fatal("nil instruments recorded something")
	}
}

func TestNilRegistryResolvesNil(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned live instruments")
	}
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
	s := r.Snapshot()
	if s.Counters == nil || len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %+v", s)
	}
}

// TestNilInstrumentsZeroAlloc is half of the issue's overhead acceptance
// criterion: the disabled path must not allocate. The time half is covered
// by BenchmarkRunMetered vs BenchmarkRunUnmetered in internal/harness.
func TestNilInstrumentsZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Observe(5)
		h.Observe(7)
	})
	if allocs != 0 {
		t.Fatalf("nil instruments allocated %.1f per op", allocs)
	}
}

func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("msa.tile0.entry_allocs")
	c1.Inc()
	c2 := r.Counter("msa.tile0.entry_allocs")
	if c1 != c2 {
		t.Fatal("same name resolved to different counters")
	}
	if c2.Value() != 1 {
		t.Fatalf("value = %d", c2.Value())
	}
	if r.Histogram("h") != r.Histogram("h") || r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge/histogram get-or-create not idempotent")
	}
}

func TestGaugeKeepsMax(t *testing.T) {
	g := NewRegistry().Gauge("omu.tile0.max_level")
	g.Observe(4)
	g.Observe(9)
	g.Observe(2)
	if g.Value() != 9 {
		t.Fatalf("gauge = %d, want 9", g.Value())
	}
}

func TestLevelGaugeTracksCurrentValue(t *testing.T) {
	r := NewRegistry()
	g := r.Level("serve.queue.depth")
	g.Add(3)
	g.Add(-2)
	if g.Value() != 1 {
		t.Fatalf("level = %d, want 1 (levels must go down, not keep max)", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("level = %d after Set, want 7", g.Value())
	}
	if got := r.Snapshot().Levels["serve.queue.depth"]; got != 7 {
		t.Fatalf("snapshot level = %d, want 7", got)
	}
	// Identity: re-resolution returns the same instrument.
	if r.Level("serve.queue.depth") != g {
		t.Fatal("Level did not memoize")
	}
	// Nil safety.
	var ng *LevelGauge
	ng.Set(5)
	ng.Add(1)
	if ng.Value() != 0 {
		t.Fatal("nil level gauge recorded")
	}
	var nr *Registry
	if nr.Level("x") != nil {
		t.Fatal("nil registry returned a live level gauge")
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a")
	r.Histogram("c")
	r.Level("d")
	got := r.Names()
	want := []string{"counter:b", "gauge:a", "histogram:c", "level:d"}
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestTileName(t *testing.T) {
	if got := TileName("msa", 3, "overflow_steers"); got != "msa.tile3.overflow_steers" {
		t.Fatalf("TileName = %q", got)
	}
	if got := Name("noc", "flits"); got != "noc.flits" {
		t.Fatalf("Name = %q", got)
	}
}

// TestSnapshotMarshalDeterministic relies on encoding/json's sorted map
// keys: two snapshots of registries populated in different orders must
// marshal byte-identically.
func TestSnapshotMarshalDeterministic(t *testing.T) {
	build := func(names []string) []byte {
		r := NewRegistry()
		for i, n := range names {
			r.Counter(n).Add(uint64(i%3) + 1)
		}
		r.Gauge("g").Observe(5)
		r.Histogram("h").Observe(100)
		s := r.Snapshot()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Counters a=1 b=2 c=3 regardless of creation order.
	a := build([]string{"a", "b", "c"})
	r2 := NewRegistry()
	r2.Counter("c").Add(3)
	r2.Counter("a").Add(1)
	r2.Counter("b").Add(2)
	r2.Gauge("g").Observe(5)
	r2.Histogram("h").Observe(100)
	b, err := json.Marshal(r2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("snapshot marshal depends on insertion order:\n%s\n%s", a, b)
	}
}

func TestSnapshotHistogramPercentiles(t *testing.T) {
	var h stats.Histogram
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := SnapshotHistogram(&h)
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.P50 == 0 || s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
}

// TestMergeFoldsEveryInstrumentKind: the sharded machine's post-run merge —
// counters and levels sum, max-gauges keep the larger value, histograms
// accumulate, and instruments unknown to the destination are created.
func TestMergeFoldsEveryInstrumentKind(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("shared").Add(10)
	dst.Gauge("peak").Observe(7)
	dst.Level("depth").Add(3)
	dst.Histogram("lat").Observe(4)

	src := NewRegistry()
	src.Counter("shared").Add(5)
	src.Counter("only_src").Add(2)
	src.Gauge("peak").Observe(9)
	src.Level("depth").Add(-1)
	src.Histogram("lat").Observe(16)

	dst.Merge(src)
	if v := dst.Counter("shared").Value(); v != 15 {
		t.Errorf("shared counter = %d, want 15", v)
	}
	if v := dst.Counter("only_src").Value(); v != 2 {
		t.Errorf("src-only counter = %d, want 2", v)
	}
	if v := dst.Gauge("peak").Value(); v != 9 {
		t.Errorf("peak gauge = %d, want 9", v)
	}
	if v := dst.Level("depth").Value(); v != 2 {
		t.Errorf("depth level = %d, want 2", v)
	}
	if c := dst.Histogram("lat").Hist().Count(); c != 2 {
		t.Errorf("histogram count = %d, want 2", c)
	}
	// src is untouched; nil/self merges are no-ops.
	if v := src.Counter("shared").Value(); v != 5 {
		t.Errorf("merge mutated source: %d", v)
	}
	dst.Merge(nil)
	(*Registry)(nil).Merge(src)
	dst.Merge(dst)
	if v := dst.Counter("shared").Value(); v != 15 {
		t.Errorf("no-op merges changed counter to %d", v)
	}
}

// TestMergeOrderInvariantTotals: merging per-shard registries in any order
// yields identical snapshots — the machine merges in shard order for
// determinism, but the totals themselves are order-free.
func TestMergeOrderInvariantTotals(t *testing.T) {
	mk := func(seed uint64) *Registry {
		r := NewRegistry()
		r.Counter("ops").Add(seed)
		r.Gauge("hwm").Observe(seed * 3 % 17)
		r.Histogram("lat").Observe(seed + 1)
		return r
	}
	ab := NewRegistry()
	ab.Merge(mk(1))
	ab.Merge(mk(2))
	ba := NewRegistry()
	ba.Merge(mk(2))
	ba.Merge(mk(1))
	a, _ := json.Marshal(ab.Snapshot())
	b, _ := json.Marshal(ba.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("merge order changed totals:\n%s\n%s", a, b)
	}
}
