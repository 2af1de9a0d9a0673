package misar_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"misar"
)

// Exercises the extension surface through the public facade: Bloom OMU,
// tracing, latency histograms, and config serialization.

func TestBloomConfigThroughFacade(t *testing.T) {
	cfg := misar.WithBloomOMU(misar.MSAOMU(8, 2), 2)
	app, _ := misar.AppByName("radiosity")
	m, cycles, err := misar.RunApp(app, cfg, misar.HWLib())
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || m.Coverage() <= 0 {
		t.Fatal("bloom machine did not run")
	}
}

func TestTracerThroughFacade(t *testing.T) {
	m := misar.New(misar.MSAOMU(4, 2))
	for _, f := range m.Flights {
		f.Resize(10_000)
	}
	arena := misar.NewArena(0x100000)
	lock := arena.Mutex()
	lib := misar.HWLib()
	qn := arena.QNode()
	m.SpawnAll(1, func(tid int, e misar.Env) {
		rt := lib.Bind(e, qn)
		rt.Lock(lock)
		e.Compute(10)
		rt.Unlock(lock)
	})
	if _, err := m.Run(misar.RunDeadline); err != nil {
		t.Fatal(err)
	}
	evs := m.FlightEvents()
	if len(evs) == 0 {
		t.Fatal("flight stream recorded nothing")
	}
	// The timeline must contain the lock request and its response, and the
	// core's issue/complete pair must render as a Chrome duration event.
	var sawReq, sawResp bool
	for _, ev := range evs {
		switch ev.Kind.String() {
		case "msa-req":
			sawReq = true
		case "msa-resp":
			sawResp = true
		}
	}
	if !sawReq || !sawResp {
		t.Fatalf("timeline incomplete: req=%v resp=%v", sawReq, sawResp)
	}
	var buf bytes.Buffer
	if err := misar.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph": "X"`) {
		t.Fatalf("chrome trace has no duration event:\n%s", buf.String())
	}
}

func TestConfigIOThroughFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := misar.SaveConfig(path, misar.MSAOMU(16, 2)); err != nil {
		t.Fatal(err)
	}
	cfg, err := misar.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tiles != 16 || cfg.MSA.Entries != 2 {
		t.Fatalf("config mangled: %+v", cfg)
	}
}

func TestNoSpuriousLibThroughFacade(t *testing.T) {
	lib := misar.HWLib()
	lib.Cond = misar.CondNoSpurious
	m := misar.New(misar.MSAOMU(4, 2))
	arena := misar.NewArena(0x100000)
	lock := arena.Mutex()
	cond := arena.Cond()
	flag := arena.Data(1)
	qn := []misar.Addr{arena.QNode(), arena.QNode()}
	m.SpawnAll(2, func(tid int, e misar.Env) {
		rt := lib.Bind(e, qn[tid])
		if tid == 0 {
			rt.Lock(lock)
			for e.Load(flag) == 0 {
				rt.CondWait(cond, lock)
			}
			rt.Unlock(lock)
			return
		}
		e.Compute(5000)
		rt.Lock(lock)
		e.Store(flag, 1)
		rt.CondSignal(cond)
		rt.Unlock(lock)
	})
	if _, err := m.Run(misar.RunDeadline); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyThroughFacade(t *testing.T) {
	app, _ := misar.AppByName("streamcluster")
	m, _, err := misar.RunApp(app, misar.MSAOMU(8, 2), misar.HWLib())
	if err != nil {
		t.Fatal(err)
	}
	h := m.Latency(misar.LatBarrier)
	if h.Count() == 0 || h.Mean() <= 0 {
		t.Fatalf("barrier latency histogram empty")
	}
}
