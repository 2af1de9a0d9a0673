package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/metrics"
	"misar/internal/noc"
	"misar/internal/obs"
	"misar/internal/service"
	"misar/internal/store"
	"misar/internal/trace"
)

// layerMetric is one per-layer metric of a traced run. BENCHMARK.json's
// per_layer list mirrors this table (TestBenchmarkJSONMatches).
type layerMetric struct{ name, unit, better string }

// layerMetrics are reported for every workload; a layer the workload does
// not reach reads 0. Counts are per op (a sweep, a scale pair or a job).
var layerMetrics = []layerMetric{
	{"cpu.handoffs", "count", "lower"},
	{"cpu.handoff_ns", "ns", "lower"},
	{"cpu.handoff_q1_ns", "ns", "lower"},
	{"cpu.handoff_q3_ns", "ns", "lower"},
	{"cpu.sync_stall_kcycles", "kcycles", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.event_ns", "ns", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.cross_posts", "count", "lower"},
	{"noc.messages", "count", "lower"},
	{"noc.hops", "count", "lower"},
	{"noc.contention_cycles", "cycles", "lower"},
	{"noc.hop_ns", "ns", "lower"},
	{"coherence.l1_misses", "count", "lower"},
	{"coherence.l1_hit_ratio", "ratio", "higher"},
	{"coherence.invalidations", "count", "lower"},
	{"coherence.dir_conflicts", "count", "lower"},
	{"coherence.miss_ns", "ns", "lower"},
	{"core.hw_ops", "count", "higher"},
	{"core.sw_ops", "count", "lower"},
	{"core.coverage", "ratio", "higher"},
	{"core.omu_steers", "count", "lower"},
	{"core.lock_pair_ns", "ns", "lower"},
	{"tm.commits", "count", "higher"},
	{"tm.aborts", "count", "lower"},
	{"tm.commit_ratio", "ratio", "higher"},
	{"machine.build_ms", "ms", "lower"},
	{"machine.run_ms", "ms", "lower"},
	{"machine.run_k1_ms", "ms", "lower"},
	{"machine.run_k2_ms", "ms", "lower"},
	{"harness.submitted", "count", "lower"},
	{"harness.unique", "count", "lower"},
	{"harness.memo_hits", "count", "higher"},
	{"harness.store_hits", "count", "higher"},
	{"harness.queue_wait_ms", "ms", "lower"},
	{"store.gets", "count", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.puts", "count", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.record_kb", "kB", "lower"},
	{"service.server_ms", "ms", "lower"},
	{"service.http_ms", "ms", "lower"},
	{"service.response_kb", "kB", "lower"},
	{"op.p50_ms", "ms", "lower"},
	{"op.wall_ms", "ms", "lower"},
	{"op.modeled_ms", "ms", "lower"},
	{"op.unattributed_ms", "ms", "lower"},
}

// spanCapacity bounds the spans kept for the Chrome trace; the ring keeps
// the newest, so a long serve run's trace shows its last jobs.
const spanCapacity = 1 << 15

// layers accumulates a traced run's per-layer counts and times. Counts come
// from the metrics reports the simulations return, from the benchmark's own
// calls into each layer, from a counting store wrapper and from the spans
// the server returns with each job. All methods accept a nil receiver (an
// untraced run) and do nothing.
type layers struct {
	rec   *obs.Recorder
	trace string // trace ID of the benchmark's own spans

	mu    sync.Mutex
	sum   map[string]float64
	micro map[string]float64 // layer microbenchmark results
}

func newLayers() *layers {
	return &layers{
		rec:   obs.NewRecorder(spanCapacity),
		trace: obs.NewTraceID(),
		sum:   map[string]float64{},
		micro: map[string]float64{},
	}
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.sum[name] += v
	l.mu.Unlock()
}

// span is a wall-clock interval the benchmark records around one layer call.
type span struct {
	l          *layers
	proc, name string
	t0         time.Time
	d          time.Duration
}

func (l *layers) start(proc, name string) *span {
	if l == nil {
		return nil
	}
	return &span{l: l, proc: proc, name: name, t0: time.Now()}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.d = time.Since(s.t0)
	s.l.rec.Record(trace.Span{Trace: s.l.trace, Proc: s.proc, Name: s.name,
		Start: s.t0.UnixMicro(), Dur: s.d.Microseconds()})
}

func (s *span) dur() time.Duration {
	if s == nil {
		return 0
	}
	return s.d
}

// withRecorder hands the benchmark's recorder to one served experiment, so
// client.Submit records its spans under the experiment's trace ID.
func (l *layers) withRecorder(ctx context.Context) context.Context {
	if l == nil {
		return ctx
	}
	return obs.WithRecorder(ctx, l.rec)
}

// hopZeroLoad is the uncontended per-hop latency of the evaluation's mesh.
var hopZeroLoad = func() float64 {
	c := noc.DefaultConfig(1, 1)
	return float64(c.RouterLatency + c.LinkLatency)
}()

// addReport adds the simulated-layer counts of one metered simulation. It
// returns the handoffs (memory and sync operations, each one thread-kernel
// round trip; compute blocks are not in the report) and an estimate of the
// events fired (handoffs plus NoC hops plus deliveries), for callers that
// cannot count them exactly.
func (l *layers) addReport(rep *metrics.Report) (handoffs, events float64) {
	c := rep.Metrics.Counters
	get := func(name string) float64 { return float64(c[name]) }
	handoffs = get("l1.loads") + get("l1.stores") + get("l1.rmws")
	var hw, sw float64
	for name, v := range c {
		switch {
		case strings.HasPrefix(name, "cpu.sync_issued."):
			handoffs += float64(v)
		case strings.HasPrefix(name, "msa.") && strings.HasSuffix(name, "_hw"):
			hw += float64(v)
		case strings.HasPrefix(name, "msa.") && strings.HasSuffix(name, "_sw"):
			sw += float64(v)
		}
	}
	hw += get("msa.silent_locks") // hardware grants, as machine.Coverage counts them
	msgs, hops := get("noc.messages"), get("noc.hop_count")
	// Unloaded, a message's head crosses each hop in hopZeroLoad cycles and
	// its tail follows flits-1 cycles later; the 1-cycle latency of a
	// tile-local delivery is left in the contention estimate.
	zeroLoad := hops*hopZeroLoad + get("noc.flits") - msgs
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sum["sync_stall_cycles"] += get("cpu.sync_stall_cycles")
	l.sum["noc_messages"] += msgs
	l.sum["noc_hops"] += hops
	l.sum["noc_contention"] += max(0, get("noc.total_latency")-zeroLoad)
	l.sum["l1_misses"] += get("l1.misses")
	l.sum["l1_hits"] += get("l1.hits")
	l.sum["invalidations"] += get("dir.inv_sent")
	l.sum["dir_conflicts"] += get("dir.conflicts")
	l.sum["hw_ops"] += hw
	l.sum["sw_ops"] += sw
	l.sum["omu_steers"] += get("msa.omu_steers")
	l.sum["tm_commits"] += get("tm.commits")
	l.sum["tm_aborts"] += get("tm.aborts")
	return handoffs, handoffs + msgs + hops
}

// addRunner adds one figure sweep: every unique simulation's report and
// the runner's memo counters. The sweep's simulations run on parallel
// workers, so the simulator time behind its events is wall × workers.
func (l *layers) addRunner(r *harness.Runner, wall time.Duration) {
	if l == nil {
		return
	}
	for _, rep := range r.Reports() {
		h, ev := l.addReport(rep)
		l.add("handoffs", h)
		l.add("events", ev)
	}
	l.addRunnerStats(harness.RunnerStats{}, r.Stats())
	l.add("sim_wall_ns", float64(wall.Nanoseconds()*int64(r.Workers())))
}

func (l *layers) addRunnerStats(before, after harness.RunnerStats) {
	if l == nil {
		return
	}
	sub, uniq := after.Submitted-before.Submitted, after.Unique-before.Unique
	l.add("submitted", float64(sub))
	l.add("unique", float64(uniq))
	l.add("memo_hits", float64(sub-uniq))
	l.add("store_hits", float64(after.StoreHits-before.StoreHits))
}

// addScale adds one scale run, whose handoffs and events are exact: the
// benchmark drove the machine through a counting Env and reads the engine.
func (l *layers) addScale(m *machine.Machine, shards int, fired, handoffs uint64, build, run time.Duration) {
	l.addReport(m.MetricsReport("app", "scale", "mcs-tree"))
	l.add("handoffs", float64(handoffs))
	l.add("events", float64(fired))
	l.add("sim_wall_ns", float64(run.Nanoseconds()))
	l.add("build_ms", msOf(build))
	l.add("run_ms", msOf(run))
	l.add(fmt.Sprintf("run_k%d_ms", shards), msOf(run))
	if m.Group != nil {
		l.add("windows", float64(m.Group.Windows()))
		l.add("cross_posts", float64(m.Group.Posted()))
	}
}

// addExperiment adds one served experiment: the server's spans from its
// jobs' done events, the client-observed latency, and the report of each
// job that simulated (fresh: its first submission to this server, on a
// store without it). The jobs share one trace ID, so each done event
// carries the spans of both; they are counted once. The jobs run side by
// side, so the server time is the longer job's.
func (l *layers) addExperiment(evs []*service.JobEvent, fresh []bool, lat time.Duration) {
	if l == nil {
		return
	}
	type spanID struct {
		proc, name string
		start, dur int64
	}
	seen := map[spanID]bool{}
	var server, simRun float64
	for _, ev := range evs {
		for _, sp := range ev.Spans {
			id := spanID{sp.Proc, sp.Name, sp.Start, sp.Dur}
			if seen[id] {
				continue
			}
			seen[id] = true
			l.rec.Record(sp)
			ms := float64(sp.Dur) / 1e3
			switch sp.Proc + "/" + sp.Name {
			case "harness/queue.wait":
				l.add("queue_wait_ms", ms)
			case "sim/sim.build":
				l.add("build_ms", ms)
			case "sim/sim.run":
				l.add("run_ms", ms)
				simRun += ms
			}
			if sp.Proc == "served" {
				server = max(server, ms)
			}
		}
	}
	l.add("server_ms", server)
	l.add("http_ms", msOf(lat)-server)
	l.add("sim_wall_ns", simRun*1e6)
	for i, ev := range evs {
		if fresh[i] && !ev.FromStore && ev.Result != nil && ev.Result.Report != nil {
			h, events := l.addReport(ev.Result.Report)
			l.add("handoffs", h)
			l.add("events", events)
		}
	}
}

// countResponses wraps the server's handler to count its response bytes.
// Only the measured passes' servers are wrapped.
func (l *layers) countResponses(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		l.add("response_bytes", float64(cw.n))
	})
}

// countingWriter counts bytes written; Flush and Unwrap keep the server's
// NDJSON streaming and per-write deadlines working through it.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// wrapStore is the service's WrapStore hook: it counts every store call and
// records a span around each write (the runner already spans lookups).
func (l *layers) wrapStore(st *store.Store) harness.ResultStore { return countingStore{st, l} }

type countingStore struct {
	st *store.Store
	l  *layers
}

func (c countingStore) GetCtx(ctx context.Context, fp string) ([]byte, bool) {
	b, ok := c.st.GetCtx(ctx, fp)
	c.l.add("store_gets", 1)
	if ok {
		c.l.add("store_get_hits", 1)
		c.l.add("store_bytes", float64(len(b)))
		c.l.add("store_records", 1)
	}
	return b, ok
}

func (c countingStore) PutCtx(ctx context.Context, fp string, payload []byte) error {
	sp := obs.StartSpan(ctx, "store", "store.put")
	err := c.st.PutCtx(ctx, fp, payload)
	sp.End()
	c.l.add("store_puts", 1)
	c.l.add("store_bytes", float64(len(payload)))
	c.l.add("store_records", 1)
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report turns the sums into the per-layer metrics, per op. The modeled
// time multiplies each layer's count by its microbenchmarked cost. The
// microbenchmarks overlap (a handoff round trip fires one event, a hop is
// one event), so the model charges events at the engine's cost and only the
// excess to handoffs and hops; a coherence miss and a lock pair are made of
// those and are not charged again. The remainder is the mean op wall not
// explained by the model; op.p50_ms is the traced median, which the summary
// compares with the untraced op_p50_ms as the tracing overhead.
func (l *layers) report(r *run) []metric {
	s, mi := l.sum, l.micro
	n := float64(max(len(r.ops), 1))
	per := func(k string) float64 { return s[k] / n }
	modeledNs := s["events"]*mi["event_ns"] +
		s["handoffs"]*max(0, mi["handoff_ns"]-mi["event_ns"]) +
		s["noc_hops"]*max(0, mi["hop_ns"]-mi["event_ns"])
	modeled := modeledNs/1e6/n/float64(r.spec.parallel) +
		(s["store_gets"]*mi["get_us"]+s["store_puts"]*mi["put_us"])/1e3/n +
		per("http_ms")
	var wall float64
	for _, op := range r.ops {
		wall += op / n
	}
	vals := map[string]float64{
		"cpu.handoffs":            per("handoffs"),
		"cpu.handoff_ns":          mi["handoff_ns"],
		"cpu.handoff_q1_ns":       mi["handoff_q1_ns"],
		"cpu.handoff_q3_ns":       mi["handoff_q3_ns"],
		"cpu.sync_stall_kcycles":  per("sync_stall_cycles") / 1e3,
		"sim.events":              per("events"),
		"sim.ns_per_event":        ratio(s["sim_wall_ns"], s["events"]),
		"sim.event_ns":            mi["event_ns"],
		"sim.windows":             per("windows"),
		"sim.cross_posts":         per("cross_posts"),
		"noc.messages":            per("noc_messages"),
		"noc.hops":                per("noc_hops"),
		"noc.contention_cycles":   per("noc_contention"),
		"noc.hop_ns":              mi["hop_ns"],
		"coherence.l1_misses":     per("l1_misses"),
		"coherence.l1_hit_ratio":  ratio(s["l1_hits"], s["l1_hits"]+s["l1_misses"]),
		"coherence.invalidations": per("invalidations"),
		"coherence.dir_conflicts": per("dir_conflicts"),
		"coherence.miss_ns":       mi["miss_ns"],
		"core.hw_ops":             per("hw_ops"),
		"core.sw_ops":             per("sw_ops"),
		"core.coverage":           ratio(s["hw_ops"], s["hw_ops"]+s["sw_ops"]),
		"core.omu_steers":         per("omu_steers"),
		"core.lock_pair_ns":       mi["lock_pair_ns"],
		"tm.commits":              per("tm_commits"),
		"tm.aborts":               per("tm_aborts"),
		"tm.commit_ratio":         ratio(s["tm_commits"], s["tm_commits"]+s["tm_aborts"]),
		"machine.build_ms":        per("build_ms"),
		"machine.run_ms":          per("run_ms"),
		"machine.run_k1_ms":       per("run_k1_ms"),
		"machine.run_k2_ms":       per("run_k2_ms"),
		"harness.submitted":       per("submitted"),
		"harness.unique":          per("unique"),
		"harness.memo_hits":       per("memo_hits"),
		"harness.store_hits":      per("store_hits"),
		"harness.queue_wait_ms":   per("queue_wait_ms"),
		"store.gets":              per("store_gets"),
		"store.get_us":            mi["get_us"],
		"store.puts":              per("store_puts"),
		"store.put_us":            mi["put_us"],
		"store.hit_ratio":         ratio(s["store_get_hits"], s["store_gets"]),
		"store.record_kb":         ratio(s["store_bytes"], s["store_records"]) / 1e3,
		"service.server_ms":       per("server_ms"),
		"service.http_ms":         per("http_ms"),
		"service.response_kb":     per("response_bytes") / 1e3,
		"op.p50_ms":               median(r.ops),
		"op.wall_ms":              wall,
		"op.modeled_ms":           modeled,
		"op.unattributed_ms":      wall - modeled,
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		out = append(out, metric{m.name, vals[m.name], m.unit, len(r.ops)})
	}
	return out
}

// writeTrace writes every recorded span as one Chrome trace.
func (l *layers) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeSpans(f, l.rec.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
