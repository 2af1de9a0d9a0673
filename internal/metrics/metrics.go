// Package metrics is the machine-wide observability layer: a dependency-light
// registry of typed instruments (Counter, max-tracking Gauge, and
// stats.Histogram-backed latency histograms) with hierarchical dot-separated
// names such as "msa.tile3.overflow_steers" or "noc.link_flits.east".
//
// The design follows the nil-receiver contract of obs.FlightRecorder at the
// instrument level: components resolve their instruments once at attach time
// and record through plain pointers; every instrument method is safe on a nil
// receiver and compiles to a single predictable branch, so an unmetered
// machine pays no allocations and no measurable time on its hot paths.
//
// Sharding: instruments are resolved per tile (the name carries the tile,
// e.g. "msa.tile3.entry_allocs") and each simulated machine owns a private
// Registry, so the parallel experiment harness never contends — recording
// touches only the per-tile instrument structs of the machine being
// simulated, and the registry map itself is consulted only during resolution
// and snapshotting.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"misar/internal/stats"
)

// Counter is a monotonically increasing uint64 instrument. A nil Counter
// records nothing.
type Counter struct{ v uint64 }

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a max-tracking instrument: Observe keeps the largest value seen
// (occupancies, queue depths, watermark-style measurements). A nil Gauge
// records nothing.
type Gauge struct{ v uint64 }

// Observe records v, keeping the maximum. Safe on a nil receiver.
func (g *Gauge) Observe(v uint64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the largest observation (0 for nil).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v
}

// LevelGauge is a true level instrument: it tracks the *current* value of a
// quantity that rises and falls (queue depth, jobs in flight), where Gauge
// deliberately retains only the maximum. Keep both when a level matters
// operationally and its high-water mark matters for capacity planning: the
// convention is the level under the plain name and the watermark under
// "<name>.max". A nil LevelGauge records nothing. Like every instrument
// here it is not internally synchronized — writers serialize externally
// (the sim is single-threaded; the serving layer holds its metrics lock).
type LevelGauge struct{ v int64 }

// Set replaces the level. Safe on a nil receiver.
func (g *LevelGauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add moves the level by delta (negative to decrease). Safe on a nil
// receiver.
func (g *LevelGauge) Add(delta int64) {
	if g != nil {
		g.v += delta
	}
}

// Value returns the current level (0 for nil).
func (g *LevelGauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a power-of-two bucketed latency histogram (see
// stats.Histogram for the bucket-edge semantics). A nil Histogram records
// nothing.
type Histogram struct{ h stats.Histogram }

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h != nil {
		h.h.Observe(v)
	}
}

// Merge accumulates a stats.Histogram into h. Safe on a nil receiver.
func (h *Histogram) Merge(o *stats.Histogram) {
	if h != nil {
		h.h.Merge(o)
	}
}

// Hist returns the underlying stats.Histogram (nil for a nil Histogram).
func (h *Histogram) Hist() *stats.Histogram {
	if h == nil {
		return nil
	}
	return &h.h
}

// Registry holds a machine's instruments by hierarchical name. The zero
// value is not usable; construct with NewRegistry. A nil *Registry is the
// disabled state: resolution returns nil instruments, which record nothing.
//
// Resolution (Counter/Gauge/Histogram) and Snapshot take an internal lock;
// recording through a resolved instrument is lock-free. Resolve once at
// component attach time, never on a hot path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	levels     map[string]*LevelGauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		levels:     make(map[string]*LevelGauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the max-gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Level returns the level gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Level(name string) *LevelGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.levels[name]
	if !ok {
		g = &LevelGauge{}
		r.levels[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Merge folds every instrument of o into r: counters and level gauges sum,
// max-gauges keep the larger observation, histograms accumulate buckets.
// Instruments that exist only in o are created in r. The sharded machine
// merges its per-shard registries in shard order after the run, so the
// result is deterministic. Safe when either registry is nil (no-op).
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil || r == o {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, c := range o.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range o.gauges {
		r.Gauge(name).Observe(g.Value())
	}
	for name, g := range o.levels {
		r.Level(name).Add(g.Value())
	}
	for name, h := range o.histograms {
		r.Histogram(name).Merge(&h.h)
	}
}

// Name joins hierarchical name parts with dots: Name("noc", "flits") ==
// "noc.flits".
func Name(parts ...string) string { return strings.Join(parts, ".") }

// TileName builds the conventional per-tile instrument name:
// TileName("msa", 3, "overflow_steers") == "msa.tile3.overflow_steers".
func TileName(component string, tile int, metric string) string {
	return fmt.Sprintf("%s.tile%d.%s", component, tile, metric)
}

// HistogramSnapshot is the exported summary of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   uint64  `json:"max"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
}

// SnapshotHistogram summarizes a stats.Histogram.
func SnapshotHistogram(h *stats.Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
	}
}

// Snapshot is a point-in-time copy of every instrument's value, keyed by
// name. encoding/json emits map keys sorted, so a marshalled Snapshot is
// deterministic and diffable.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Levels     map[string]int64             `json:"levels,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.levels) > 0 {
		s.Levels = make(map[string]int64, len(r.levels))
		for name, g := range r.levels {
			s.Levels[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = SnapshotHistogram(&h.h)
		}
	}
	return s
}

// Names returns every registered instrument name, sorted, prefixed by its
// kind ("counter:", "gauge:", "histogram:") — handy for debugging wiring.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.levels)+len(r.histograms))
	for n := range r.counters {
		out = append(out, "counter:"+n)
	}
	for n := range r.gauges {
		out = append(out, "gauge:"+n)
	}
	for n := range r.levels {
		out = append(out, "level:"+n)
	}
	for n := range r.histograms {
		out = append(out, "histogram:"+n)
	}
	sort.Strings(out)
	return out
}
