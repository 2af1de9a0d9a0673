package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"misar/internal/cpu"
	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/noc"
	"misar/internal/sim"
	"misar/internal/store"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// microReps is how often each layer microbenchmark repeats; the median is
// reported.
const microReps = 7

// microbenchmarks measures the host cost of one operation of each layer
// through the layer's public functions, for the traced run's ns/op rows and
// the per-layer time model.
func (l *layers) microbenchmarks(r *run) error {
	div := 1 // toy runs cut every iteration count
	if r.toy {
		div = 20
	}
	// reps runs fn, which returns ns per operation, microReps times.
	reps := func(name string, fn func() (float64, error)) ([]float64, error) {
		var xs []float64
		for i := 0; i < microReps; i++ {
			sp := l.start("micro", name)
			ns, err := fn()
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			xs = append(xs, ns)
		}
		return xs, nil
	}
	for _, b := range []struct {
		name string
		fn   func() (float64, error)
	}{
		{"handoff_ns", func() (float64, error) { return handoffCost(40000 / div) }},
		{"event_ns", func() (float64, error) { return eventCost(400000 / div), nil }},
		{"hop_ns", func() (float64, error) { return hopCost(20000 / div), nil }},
		{"miss_ns", func() (float64, error) { return missCost(8000 / div) }},
		{"lock_pair_ns", func() (float64, error) { return lockPairCost(8000 / div) }},
	} {
		xs, err := reps(b.name, b.fn)
		if err != nil {
			return err
		}
		l.micro[b.name] = median(xs)
		if b.name == "handoff_ns" {
			// The handoff cost is bimodal on a loaded host (the two goroutines
			// land on one CPU or on two), so the quartiles are kept too.
			l.micro["handoff_q1_ns"] = quantile(xs, 0.25)
			l.micro["handoff_q3_ns"] = quantile(xs, 0.75)
		}
	}
	rec, err := storeRecord()
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(r.tmp, "micro-store"))
	if err != nil {
		return err
	}
	const perRep = 16
	var rep int
	fps := func() []string {
		rep++
		out := make([]string, perRep)
		for i := range out {
			out[i] = store.Fingerprint(fmt.Sprintf("bench-micro/%d/%d", rep, i))
		}
		return out
	}
	var last []string
	puts, err := reps("put_us", func() (float64, error) {
		last = fps()
		t0 := time.Now()
		for _, fp := range last {
			if err := st.Put(fp, rec); err != nil {
				return 0, err
			}
		}
		return nsPer(t0, perRep), nil
	})
	if err != nil {
		return err
	}
	gets, err := reps("get_us", func() (float64, error) {
		t0 := time.Now()
		for _, fp := range last {
			if _, ok := st.Get(fp); !ok {
				return 0, fmt.Errorf("record %s missing", fp)
			}
		}
		return nsPer(t0, perRep), nil
	})
	if err != nil {
		return err
	}
	l.micro["put_us"] = median(puts) / 1e3
	l.micro["get_us"] = median(gets) / 1e3
	return nil
}

// nsPer is the wall time since t0 per operation, in ns.
func nsPer(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// handoffCost is one thread-kernel round trip: a one-tile machine whose
// thread computes one cycle at a time. Each op also fires one event.
func handoffCost(n int) (float64, error) {
	m := machine.New(machine.MSAOMU(1, 2))
	m.SpawnAll(1, func(_ int, e cpu.Env) {
		for i := 0; i < n; i++ {
			e.Compute(1)
		}
	})
	t0 := time.Now()
	if _, err := m.Run(workload.RunDeadline); err != nil {
		return 0, err
	}
	return nsPer(t0, n), nil
}

// eventCost is one scheduled and fired event on an otherwise idle engine.
func eventCost(n int) float64 {
	e := sim.NewEngine()
	nop := func(any) {}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e.AfterCall(1, nop, nil)
		e.Step()
	}
	return nsPer(t0, n)
}

// hopCost is one NoC hop: messages posted corner to corner across an idle
// 8×8 mesh (14 hops each), one at a time.
func hopCost(n int) float64 {
	e := sim.NewEngine()
	net := noc.New(e, noc.DefaultConfig(8, 8))
	for t := 0; t < 64; t++ {
		net.Attach(t, func(*noc.Message) {})
	}
	hops := net.Hops(0, 63)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		net.Post(0, 63, 16, nil)
		e.Run()
	}
	return nsPer(t0, n*hops)
}

// missCost is one L1 miss round trip on a four-tile machine: one thread
// loads distinct lines, so every load misses to its home directory.
func missCost(n int) (float64, error) {
	m := machine.New(machine.MSAOMU(4, 2))
	m.SpawnAll(1, func(_ int, e cpu.Env) {
		for i := 0; i < n; i++ {
			e.Load(memory.Addr(0x4000000 + i*memory.LineSize))
		}
	})
	t0 := time.Now()
	if _, err := m.Run(workload.RunDeadline); err != nil {
		return 0, err
	}
	ns := nsPer(t0, n)
	if misses := m.L1s[0].Stats().Misses; misses != uint64(n) {
		return 0, fmt.Errorf("%d loads missed %d times", n, misses)
	}
	return ns, nil
}

// lockPairCost is one uncontended MSA lock and unlock on a four-tile
// MSA/OMU-2 machine.
func lockPairCost(n int) (float64, error) {
	m := machine.New(machine.MSAOMU(4, 2))
	arena := syncrt.NewArena(0x1000000)
	mu, q := arena.Mutex(), arena.QNode()
	m.SpawnAll(1, func(_ int, e cpu.Env) {
		rt := syncrt.HWLib().Bind(e, q)
		for i := 0; i < n; i++ {
			rt.Lock(mu)
			rt.Unlock(mu)
		}
	})
	t0 := time.Now()
	if _, err := m.Run(workload.RunDeadline); err != nil {
		return 0, err
	}
	ns := nsPer(t0, n)
	if s := m.MSAStats(); s.SWOps() != 0 {
		return 0, fmt.Errorf("%d of %d lock operations fell back to software", s.SWOps(), 2*n)
	}
	return ns, nil
}

// storeRecord is one real 64-tile result record as the runner stores it: a
// metered Fig. 5 LockAcquire run on MSA/OMU-2, whose report carries every
// per-tile instrument.
func storeRecord() ([]byte, error) {
	r := harness.NewRunner(1)
	r.EnableMetrics()
	res, err := r.Micro("LockAcquire", workload.MicroLockAcquire, machine.MSAOMU(64, 2), syncrt.HWLib()).Result()
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
