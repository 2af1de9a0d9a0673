package noc

import (
	"sort"
	"testing"

	"misar/internal/sim"
)

// rowShard maps a W×H mesh onto k shards by row bands (the same contiguous
// partition the machine uses), so boundary hops are the north/south links.
func rowShard(w, h, k int) func(int) int {
	rowsPer := (h + k - 1) / k
	return func(tile int) int {
		s := (tile / w) / rowsPer
		if s >= k {
			s = k - 1
		}
		return s
	}
}

// delivery is one observed arrival, comparable across kernel modes.
type delivery struct {
	at       sim.Time
	src, dst int
	payload  int
}

func runTraffic(t *testing.T, shards int) ([]delivery, Stats) {
	t.Helper()
	const w, h = 4, 4
	cfg := DefaultConfig(w, h)
	var net *Network
	var engines []*sim.Engine
	var group *sim.ShardGroup
	if shards == 0 { // serial reference
		e := sim.NewEngine()
		net = New(e, cfg)
		engines = []*sim.Engine{e}
	} else {
		group = sim.NewShardGroup(shards, cfg.RouterLatency+cfg.LinkLatency)
		net = New(group.Engine(0), cfg)
		net.SetShards(group, rowShard(w, h, shards))
		engines = group.Engines()
	}
	shardOf := rowShard(w, h, max(shards, 1))

	// One delivery lane per tile: handlers append only to their own tile's
	// lane, so recording is race-free in sharded mode.
	lanes := make([][]delivery, w*h)
	for tile := 0; tile < w*h; tile++ {
		tile := tile
		eng := engines[0]
		if shards > 0 {
			eng = engines[shardOf(tile)]
		}
		net.Attach(tile, func(m *Message) {
			lanes[tile] = append(lanes[tile], delivery{eng.Now(), m.Src, m.Dst, m.Payload.(int)})
		})
	}

	// Deterministic all-to-some traffic crossing every shard boundary,
	// injected from each source tile's own engine.
	id := 0
	for src := 0; src < w*h; src++ {
		eng := engines[0]
		if shards > 0 {
			eng = engines[shardOf(src)]
		}
		for _, dst := range []int{(src + 5) % (w * h), (src + w*2) % (w * h), src} {
			src, dst, pid := src, dst, id
			eng.At(sim.Time(1+(id%3)), func() { net.Post(src, dst, 24, pid) })
			id++
		}
	}

	if shards == 0 {
		engines[0].Run()
	} else if drained, _ := group.RunUntilCheck(1_000_000, 1, nil); !drained {
		t.Fatal("sharded run did not drain")
	}

	var all []delivery
	for _, lane := range lanes {
		all = append(all, lane...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].payload < all[j].payload
	})
	return all, net.Stats()
}

// The traffic above has per-link contention, but identical injection cycles
// and deterministic routing: the sharded network must deliver every message
// at exactly the serial network's arrival cycle, because conservative
// windows never reorder physically-ordered link grants — same-cycle grant
// ties on a single link cannot occur for distinct messages here.
func TestShardedNetworkMatchesSerialTiming(t *testing.T) {
	serial, serialStats := runTraffic(t, 0)
	for _, k := range []int{1, 2, 4} {
		got, gotStats := runTraffic(t, k)
		if len(got) != len(serial) {
			t.Fatalf("k=%d: %d deliveries, serial %d", k, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("k=%d: delivery %d = %+v, serial %+v", k, i, got[i], serial[i])
			}
		}
		if gotStats.Messages != serialStats.Messages ||
			gotStats.Flits != serialStats.Flits ||
			gotStats.HopCount != serialStats.HopCount ||
			gotStats.TotalLatency != serialStats.TotalLatency ||
			gotStats.MaxLatency != serialStats.MaxLatency {
			t.Fatalf("k=%d: merged stats %+v, serial %+v", k, gotStats, serialStats)
		}
		if gotStats.HopHist.Count() != serialStats.HopHist.Count() {
			t.Fatalf("k=%d: hop hist count %d, serial %d",
				k, gotStats.HopHist.Count(), serialStats.HopHist.Count())
		}
	}
}

func TestSetShardsRejectsIncompatibleModes(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	g := sim.NewShardGroup(2, 3)

	cfg := DefaultConfig(4, 4)
	cfg.RouteAtInjection = true
	nAtInj := New(g.Engine(0), cfg)
	mustPanic("RouteAtInjection+SetShards", func() { nAtInj.SetShards(g, rowShard(4, 4, 2)) })

	nDelay := New(g.Engine(0), DefaultConfig(4, 4))
	nDelay.SetDelay(func(src, dst int) sim.Time { return 1 })
	mustPanic("delay+SetShards", func() { nDelay.SetShards(g, rowShard(4, 4, 2)) })

	nSharded := New(g.Engine(0), DefaultConfig(4, 4))
	nSharded.SetShards(g, rowShard(4, 4, 2))
	mustPanic("SetShards+SetDelay", func() { nSharded.SetDelay(func(src, dst int) sim.Time { return 1 }) })

	big := sim.NewShardGroup(2, 100)
	nBig := New(big.Engine(0), DefaultConfig(4, 4))
	mustPanic("oversized lookahead", func() { nBig.SetShards(big, rowShard(4, 4, 2)) })

	nMap := New(g.Engine(0), DefaultConfig(4, 4))
	mustPanic("bad tile map", func() { nMap.SetShards(g, func(int) int { return 7 }) })
}
