package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"misar/internal/obs"
	"misar/internal/service"
	"misar/internal/service/client"
)

// serveWorkers is the served runner's worker pool: the two jobs of one
// experiment can simulate side by side.
const serveWorkers = 2

// jobKey names one served simulation.
type jobKey struct {
	App    string
	Config string
	Tiles  int
}

func (k jobKey) String() string { return fmt.Sprintf("%s/%s/%d", k.App, k.Config, k.Tiles) }

func (k jobKey) request(metered bool) service.JobRequest {
	return service.JobRequest{App: k.App, Config: k.Config, Tiles: k.Tiles, Metrics: metered}
}

// experiment is what one `misar-sim -app A -config C -tiles T -remote addr`
// sends, the repository's only client of the job server: the job itself
// and, unless C is pthread, the pthread baseline of the same app and tiles,
// submitted concurrently under one trace ID. The server deduplicates the
// baseline against every earlier experiment on that app and tile count.
type experiment jobKey

const baselineConfig = "pthread"

// misar-sim's defaults for -app and -tiles.
const (
	misarSimApp   = "streamcluster"
	misarSimTiles = 16
)

// jobs lists the experiment's submissions, the job first.
func (x experiment) jobs() []jobKey {
	if x.Config == baselineConfig {
		return []jobKey{jobKey(x)}
	}
	return []jobKey{jobKey(x), {x.App, baselineConfig, x.Tiles}}
}

// The served key sets are spelled out rather than read from the workload
// suite and the variant table, so a change to either cannot change the
// benchmark's inputs unnoticed: a key the server no longer knows fails.
var (
	apps = []string{
		"radiosity", "raytrace", "water-sp", "ocean", "ocean-nc", "cholesky",
		"fluidanimate", "streamcluster", "bodytrack", "dedup", "ferret",
		"barnes", "fmm", "lu", "fft", "radix", "volrend", "water-ns",
		"swaptions", "blackscholes", "canneal", "freqmine", "x264", "vips",
	}
	variants = []string{
		"ideal", "mcs-tour", "mcs-tree", "msa0", "msainf", "msaomu1", "msaomu2",
		"msaomu2-barrieronly", "msaomu2-lockonly", "msaomu2-noomu", "msaomu2-noopt",
		"msaomu4", "pthread", "spinlock", "tm",
	}
	// omuSizes is the overflow-management axis of the default MSA/OMU-2
	// configuration: 1, 2 and 4 OMU counters, and an MSA with unbounded
	// entries as the no-overflow reference.
	omuSizes = []string{"msaomu1", "msaomu2", "msaomu4", "msainf"}
)

func experiments(appSet, configs []string, tiles int) []experiment {
	var xs []experiment
	for _, cfg := range configs {
		for _, app := range appSet {
			xs = append(xs, experiment{app, cfg, tiles})
		}
	}
	return xs
}

// coldExperiments is every app on every named configuration at misar-sim's
// default tile count.
func coldExperiments() []experiment { return experiments(apps, variants, misarSimTiles) }

// hitExperiments is every app across the OMU sizes at the default tile
// count: the store the serve-hit set-up seeds.
func hitExperiments() []experiment { return experiments(apps, omuSizes, misarSimTiles) }

// warmUpExperiments, misar-sim's default app on every configuration, are
// serve-cold's set-up.
func warmUpExperiments() []experiment {
	return experiments([]string{misarSimApp}, variants, misarSimTiles)
}

// toyExperiments are six small experiments: the whole key set of a toy
// run, set-up included.
func toyExperiments() []experiment {
	return experiments([]string{"fluidanimate", "streamcluster", "radiosity"}, []string{baselineConfig, "msaomu2"}, 2)
}

// jobsOf lists every distinct job the experiments submit.
func jobsOf(xs []experiment) []jobKey {
	seen := map[jobKey]bool{}
	var out []jobKey
	for _, x := range xs {
		for _, k := range x.jobs() {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// usable drops the experiments with a job that fails deterministically at
// the pinned commit (expected.json lists it with its error); they are not
// errors here.
func (r *run) usable(xs []experiment) []experiment {
	var out []experiment
next:
	for _, x := range xs {
		for _, k := range x.jobs() {
			if _, bad := r.exp.Excluded[k.String()]; bad {
				continue next
			}
		}
		out = append(out, x)
	}
	return out
}

// server is one in-process job server behind a loopback listener, with the
// one client that submits to it.
type server struct {
	srv *service.Server
	hs  *httptest.Server
	cl  *client.Client
}

func startServer(dir string, lay *layers) (*server, error) {
	opt := service.Options{Workers: serveWorkers, StoreDir: dir}
	if lay != nil {
		opt.WrapStore = lay.wrapStore
	}
	srv, err := service.New(opt)
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(lay.countResponses(srv.Handler()))
	return &server{srv: srv, hs: hs, cl: client.New(hs.URL)}, nil
}

// close waits for outstanding requests, stops the server's background work
// and drops the client's idle connections.
func (s *server) close() {
	s.hs.Close()
	s.srv.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// drive runs the experiments in order, one at a time as one user running
// misar-sim would, until they run out or the deadline passes (a zero
// deadline means never), checking every job's result. wantStore says whether
// results must come from the store (serve-hit) or from a simulation
// (serve-cold); metered asks for metrics reports. Timed experiments count as
// ops; the set-up's do not.
func (r *run) drive(s *server, xs []experiment, deadline time.Time, wantStore, metered, timed bool) {
	before := s.srv.RunnerStats()
	seen := map[jobKey]bool{}
	t0 := time.Now()
	for i, x := range xs {
		if i > 0 && !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		r.experiment(s.cl, x, seen, wantStore, metered, timed)
	}
	if timed {
		r.busy += time.Since(t0)
		r.lay.addRunnerStats(before, s.srv.RunnerStats())
	}
}

// experiment submits one experiment's jobs concurrently under one trace ID,
// as misar-sim -remote does, and checks each result. Its latency runs until
// the last job is done. seen holds the jobs submitted earlier to the same
// server: only a job's first submission can have simulated.
func (r *run) experiment(c *client.Client, x experiment, seen map[jobKey]bool, wantStore, metered, timed bool) {
	ctx := obs.WithTrace(context.Background(), obs.NewTraceID())
	if timed {
		ctx = r.lay.withRecorder(ctx)
	}
	keys := x.jobs()
	type outcome struct {
		ev  *service.JobEvent
		err error
	}
	t0 := time.Now()
	outs := make([]outcome, len(keys))
	var base chan outcome
	if len(keys) > 1 {
		base = make(chan outcome, 1)
		go func() {
			ev, err := c.Submit(ctx, keys[1].request(metered), nil)
			base <- outcome{ev, err}
		}()
	}
	outs[0].ev, outs[0].err = c.Submit(ctx, keys[0].request(metered), nil)
	if base != nil {
		outs[1] = <-base
	}
	lat := time.Since(t0)

	ok := true
	var evs []*service.JobEvent
	var fresh []bool
	for i, k := range keys {
		ev, err := outs[i].ev, outs[i].err
		if err != nil {
			ok = r.check(false, "%s: %v", k, err) && ok // a refused (429) or failed job counts as failed
			continue
		}
		want := r.exp.Cycles[k.String()]
		ok = r.check(ev.Result != nil && ev.Result.Cycles == want && ev.FromStore == wantStore,
			"%s: cycles %v from_store %v, want cycles %d from_store %v", k, cyclesOf(ev), ev.FromStore, want, wantStore) && ok
		evs = append(evs, ev)
		fresh = append(fresh, !seen[k])
		seen[k] = true
	}
	if timed && ok {
		r.recordOp(lat)
		r.lay.addExperiment(evs, fresh, lat)
	}
}

func cyclesOf(ev *service.JobEvent) any {
	if ev.Result == nil {
		return "none"
	}
	return ev.Result.Cycles
}

// serveDeadline ends the measured window; a toy run has none and finishes
// its one pass over the toy experiments.
func (r *run) serveDeadline() time.Time {
	if r.toy {
		return time.Time{}
	}
	return time.Now().Add(r.window)
}

func shuffled(rng *rand.Rand, xs []experiment) []experiment {
	out := append([]experiment(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runServeCold: set-up starts a server on an empty store, runs the warm-up
// experiments through it and stops it. Each pass then starts a fresh server
// on a fresh empty store and runs every cold experiment in a seeded order,
// so every measured job simulates on its first submission and its baseline
// is simulated once per app and then shared.
func runServeCold(r *run) error {
	xs, warm := r.usable(coldExperiments()), r.usable(warmUpExperiments())
	if r.toy {
		xs, warm = r.usable(toyExperiments()), r.usable(toyExperiments())
	}
	rng := rand.New(rand.NewSource(r.seed))
	dirs := 0
	fresh := func(lay *layers) (*server, error) {
		dirs++
		return startServer(filepath.Join(r.tmp, fmt.Sprintf("cold-%d", dirs)), lay)
	}
	if _, err := setup(r, func() (struct{}, error) {
		s, err := fresh(nil)
		if err != nil {
			return struct{}{}, err
		}
		defer s.close()
		r.drive(s, warm, time.Time{}, false, false, false)
		return struct{}{}, nil
	}, func(struct{}) {}); err != nil {
		return err
	}
	// Traced, every job is metered so its report can be read; metering all
	// of them keeps the sharing of baselines what it is untraced.
	metered := r.traced
	deadline := r.serveDeadline()
	for {
		s, err := fresh(r.lay)
		if err != nil {
			return err
		}
		r.drive(s, shuffled(rng, xs), deadline, false, metered, true)
		s.close()
		if r.toy || time.Now().After(deadline) {
			return nil
		}
		// The closed server's runner kept every finished machine; collect
		// them so the peak RSS is one pass's, however many passes fit.
		runtime.GC()
	}
}

// runServeHit: set-up seeds a store with every hit experiment through a
// server, then stops it. Each pass starts a fresh server on that store
// outside the timed window and runs every hit experiment once in a seeded
// order: each job is read from the store on its first submission to that
// server, and each app's baseline is shared from then on. Nothing
// simulates. Jobs are never metered, traced or not, so the traced run's
// response and record sizes are the untraced ones.
func runServeHit(r *run) error {
	xs := r.usable(hitExperiments())
	if r.toy {
		xs = r.usable(toyExperiments())
	}
	seeded := 0
	dir, err := setup(r, func() (string, error) {
		seeded++
		dir := filepath.Join(r.tmp, fmt.Sprintf("hit-%d", seeded))
		s, err := startServer(dir, nil)
		if err != nil {
			return "", err
		}
		defer s.close()
		r.drive(s, xs, time.Time{}, false, false, false)
		return dir, nil
	}, func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	deadline := r.serveDeadline()
	for {
		s, err := startServer(dir, r.lay)
		if err != nil {
			return err
		}
		r.drive(s, shuffled(rng, xs), deadline, true, false, true)
		s.close()
		if r.toy || time.Now().After(deadline) {
			return nil
		}
	}
}
