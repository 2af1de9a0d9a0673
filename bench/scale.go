package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"misar/internal/cpu"
	"misar/internal/isa"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/sim"
	"misar/internal/syncrt"
)

// The scale program is harness.ScaleSweep's: every tile runs scalePhases
// rounds of skewed compute and the combining-tree software barrier on an
// MSA/OMU-2 machine. The benchmark builds and runs it itself so it can time
// machine.New and Machine.Run apart and count handoffs exactly.
const (
	scaleTiles      = 1024
	scaleSetupTiles = 256 // the set-up's warm-up, about a tenth of an op
	scaleToyTiles   = 64
	scalePhases     = 3
	scaleDeadline   = sim.Time(1) << 40
)

// scaleOutcome is what a scale run must reproduce.
type scaleOutcome struct {
	End   uint64 `json:"end"`
	Fired uint64 `json:"fired"`
}

func scaleKey(tiles, shards int) string { return fmt.Sprintf("%d/k%d", tiles, shards) }

// scaleRun builds and runs the scale program once, recording its layers
// when lay is non-nil.
func scaleRun(tiles, shards int, lay *layers) (scaleOutcome, error) {
	cfg := machine.MSAOMU(tiles, 2)
	cfg.Shards = shards
	cfg.Metrics = lay != nil
	if err := machine.Validate(cfg); err != nil {
		return scaleOutcome{}, err
	}
	build := lay.start("machine", "machine.build")
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x2000000)
	bar := arena.Barrier(tiles)
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	lib := syncrt.MCSTreeLib()
	var handoffs atomic.Uint64
	m.SpawnAll(tiles, func(tid int, e cpu.Env) {
		var n uint64
		if lay != nil {
			e = countingEnv{e, &n}
		}
		rt := lib.Bind(e, qnodes[tid])
		for p := 0; p < scalePhases; p++ {
			e.Compute(uint64(100 + (tid*13+p*7)%97))
			rt.Wait(bar)
		}
		handoffs.Add(n)
	})
	build.end()
	run := lay.start("machine", "machine.run")
	end, err := m.Run(scaleDeadline)
	run.end()
	if err != nil {
		return scaleOutcome{}, err
	}
	out := scaleOutcome{End: uint64(end)}
	if m.Group != nil {
		out.Fired = m.Group.Fired()
	} else {
		out.Fired = m.Engine.Fired()
	}
	if lay != nil {
		lay.addScale(m, shards, out.Fired, handoffs.Load(), build.dur(), run.dur())
	}
	return out, nil
}

// countingEnv counts the thread-to-kernel handoffs a thread makes: every
// Env operation that blocks in simulated time is one round trip between the
// thread goroutine and the event kernel.
type countingEnv struct {
	cpu.Env
	n *uint64
}

func (c countingEnv) Compute(cycles uint64) {
	if cycles > 0 {
		*c.n++
	}
	c.Env.Compute(cycles)
}

func (c countingEnv) Load(a memory.Addr) uint64 { *c.n++; return c.Env.Load(a) }

func (c countingEnv) Store(a memory.Addr, v uint64) { *c.n++; c.Env.Store(a, v) }

func (c countingEnv) FetchAdd(a memory.Addr, d uint64) uint64 { *c.n++; return c.Env.FetchAdd(a, d) }

func (c countingEnv) Swap(a memory.Addr, v uint64) uint64 { *c.n++; return c.Env.Swap(a, v) }

func (c countingEnv) CAS(a memory.Addr, old, new uint64) bool {
	*c.n++
	return c.Env.CAS(a, old, new)
}

func (c countingEnv) Sync(op isa.SyncOp, a memory.Addr, goal int, lock memory.Addr) isa.Result {
	*c.n++
	return c.Env.Sync(op, a, goal, lock)
}

// runScale: set-up runs the program at 256 tiles (64 in a toy run) on both
// kernels as a warm-up; each op runs it at 1024 tiles on the serial and the
// 2-shard kernel, alternating which goes first, and checks end cycle and
// fired events against the pinned values.
func runScale(r *run) error {
	pair := func(tiles, i int, lay *layers) error {
		order := []int{1, 2}
		if i%2 == 1 {
			order = []int{2, 1}
		}
		for _, shards := range order {
			got, err := scaleRun(tiles, shards, lay)
			if err != nil {
				return err
			}
			key := scaleKey(tiles, shards)
			want := r.exp.Scale[key]
			r.check(got == want, "scale %s: end %d fired %d, want end %d fired %d", key, got.End, got.Fired, want.End, want.Fired)
		}
		return nil
	}
	warm, tiles := scaleSetupTiles, scaleTiles
	if r.toy {
		warm, tiles = scaleToyTiles, scaleToyTiles
	}
	if _, err := setup(r, func() (struct{}, error) { return struct{}{}, pair(warm, 0, nil) }, func(struct{}) {}); err != nil {
		return err
	}
	deadline := time.Now().Add(r.window)
	return r.serialLoop(deadline, func(i int) error {
		sp := r.lay.start("bench", "scale.pair")
		defer sp.end()
		return pair(tiles, i, r.lay)
	})
}
