// Package noc models the on-chip interconnect: a packet-switched 2D mesh
// with XY dimension-order routing, per-hop router and link latency, and
// bandwidth contention (one flit per directed link per cycle).
//
// The model is cut-through at message granularity: a message's head flit
// advances hop by hop, waiting at each hop until the outgoing link is free;
// the link is then occupied for the message's full flit count, and the tail
// arrives flits-1 cycles after the head. This preserves the two properties
// the MiSAR evaluation depends on — distance-dependent latency (MSA requests
// travel to the home tile and back) and contention-dependent latency
// (invalidation storms from software synchronization slow each other down) —
// without simulating individual flit buffers as Booksim does (see DESIGN.md,
// substitution table).
//
// The per-hop walk runs on pooled messages and static event handlers, so
// steady-state traffic injected with Post allocates nothing.
package noc

import (
	"fmt"

	"misar/internal/sim"
	"misar/internal/stats"
)

// Config describes mesh geometry and timing.
type Config struct {
	Width, Height int      // mesh dimensions; Width*Height tiles
	RouterLatency sim.Time // per-hop pipeline latency in cycles
	LinkLatency   sim.Time // per-hop wire latency in cycles
	FlitBytes     int      // flit width; message sizes are rounded up
	LocalLatency  sim.Time // latency for a tile sending to itself
}

// DefaultConfig returns the timing used in the evaluation: a 2-cycle router,
// 1-cycle links and 16-byte flits, matching typical many-core NoC parameters
// of the paper's era.
func DefaultConfig(width, height int) Config {
	return Config{
		Width:         width,
		Height:        height,
		RouterLatency: 2,
		LinkLatency:   1,
		FlitBytes:     16,
		LocalLatency:  1,
	}
}

// Message is a packet traversing the mesh. Payload is opaque to the network.
type Message struct {
	Src, Dst int
	Bytes    int // payload size; converted to flits by the network
	Payload  any

	// In-flight bookkeeping, owned by the network between injection and
	// delivery. Keeping the walk state here (rather than in per-hop
	// closures) lets every hop and delivery event be a pooled, static
	// (handler, *Message) pair — the steady-state send path allocates
	// nothing.
	net    *Network
	inject sim.Time
	at     int // tile the head flit has reached
	nflits int
	pooled bool // recycled into the network's free list after delivery
}

// Handler receives messages delivered to a tile.
type Handler func(*Message)

// direction indices for the four mesh links plus ejection.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// DirNames labels the four directed mesh links in index order (the index a
// link occupies in LinkFlits).
var DirNames = [numDirs]string{"east", "west", "north", "south"}

// Stats aggregates network activity.
type Stats struct {
	Messages     uint64
	Flits        uint64
	TotalLatency sim.Time // sum over messages of (deliver - inject)
	MaxLatency   sim.Time
	HopCount     uint64
	// HopHist distributes messages over their XY route length (local
	// deliveries observe 0 hops).
	HopHist stats.Histogram
}

// AvgLatency returns the mean end-to-end message latency in cycles.
func (s *Stats) AvgLatency() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Messages)
}

// Network is a W×H mesh. Tiles are numbered row-major: tile = y*W + x.
type Network struct {
	cfg      Config
	engine   *sim.Engine
	handlers []Handler
	// linkFree[tile][dir] is the first cycle at which that directed link can
	// accept a new message's first flit.
	linkFree [][]sim.Time
	// linkFlits[tile][dir] counts flits carried by that directed link.
	linkFlits [][]uint64
	// free[shard] recycles Post-injected messages after delivery. Serial
	// networks have exactly one pool. In sharded mode Post pops from the
	// source tile's shard pool and delivery pushes to the destination
	// tile's, so each pool is touched only by its own shard's goroutine.
	free [][]*Message
	// stats[shard] accumulates network activity; Stats() merges. Injection
	// counts accrue to the source tile's shard, hop counts to the hopping
	// tile's, latency to the destination's — always the shard executing.
	stats []Stats

	// Sharded mode (nil group = serial). shardOf maps tile -> shard; every
	// event touching tile state runs on that tile's shard engine, and hops
	// crossing a shard boundary travel through group.Post with at least
	// RouterLatency+LinkLatency of slack — which is why the group lookahead
	// must not exceed that sum.
	group   *sim.ShardGroup
	shardOf []int
	// crossCheck, when installed on a sharded network, observes every
	// boundary-crossing arrival (destination shard, arrival cycle). The
	// machine wires it to fault.Checker.ShardDelivery, the runtime monitor
	// of the conservative kernel's no-straggler property.
	crossCheck func(shard int, when sim.Time)

	// delay, when installed, returns extra injection latency per message
	// (fault-campaign jitter). minStart[src*tiles+dst] is the earliest route
	// start the next message of that pair may use: route starts are kept
	// strictly increasing per (src,dst), so jitter can reorder messages
	// between pairs but never within one — the protocol depends on
	// point-to-point ordering (DESIGN.md §9.3: LOCK_SILENT before InvAck).
	delay    func(src, dst int) sim.Time
	minStart []sim.Time
}

// New builds the mesh and attaches it to the engine.
func New(engine *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.FlitBytes <= 0 {
		cfg.FlitBytes = 16
	}
	n := cfg.Width * cfg.Height
	nw := &Network{
		cfg:       cfg,
		engine:    engine,
		handlers:  make([]Handler, n),
		linkFree:  make([][]sim.Time, n),
		linkFlits: make([][]uint64, n),
	}
	for i := range nw.linkFree {
		nw.linkFree[i] = make([]sim.Time, numDirs)
		nw.linkFlits[i] = make([]uint64, numDirs)
	}
	nw.free = make([][]*Message, 1)
	nw.stats = make([]Stats, 1)
	return nw
}

// SetShards switches the network into sharded mode: tile state is owned by
// the shard tileShard assigns it, hop events execute on the owning shard's
// engine, and boundary-crossing hops are handed over through the group.
// Must be called before any traffic. The group's lookahead must not exceed
// RouterLatency+LinkLatency (the minimum cross-tile hop), and injection-delay
// hooks are incompatible with sharding (they touch remote-tile state
// directly).
func (n *Network) SetShards(g *sim.ShardGroup, tileShard func(tile int) int) {
	if n.delay != nil {
		panic("noc: injection-delay hook is incompatible with sharded mode")
	}
	if minHop := n.cfg.RouterLatency + n.cfg.LinkLatency; g.Lookahead() > minHop {
		panic(fmt.Sprintf("noc: shard lookahead %d exceeds min hop latency %d", g.Lookahead(), minHop))
	}
	n.group = g
	n.shardOf = make([]int, n.Tiles())
	for t := range n.shardOf {
		s := tileShard(t)
		if s < 0 || s >= g.Shards() {
			panic(fmt.Sprintf("noc: tile %d mapped to shard %d of %d", t, s, g.Shards()))
		}
		n.shardOf[t] = s
	}
	n.free = make([][]*Message, g.Shards())
	n.stats = make([]Stats, g.Shards())
}

// SetDeliveryCheck installs the cross-shard arrival monitor (sharded mode
// only). fn runs on the destination shard's goroutine at each boundary
// arrival; it must be internally synchronized (fault.Checker.Synchronize).
func (n *Network) SetDeliveryCheck(fn func(shard int, when sim.Time)) {
	if n.group == nil {
		panic("noc: SetDeliveryCheck requires sharded mode (SetShards first)")
	}
	n.crossCheck = fn
}

// engineAt returns the engine on which events for tile's state must run.
func (n *Network) engineAt(tile int) *sim.Engine {
	if n.group == nil {
		return n.engine
	}
	return n.group.Engine(n.shardOf[tile])
}

// statsAt returns the stats accumulator owned by tile's shard.
func (n *Network) statsAt(tile int) *Stats {
	if n.group == nil {
		return &n.stats[0]
	}
	return &n.stats[n.shardOf[tile]]
}

// Tiles returns the number of tiles in the mesh.
func (n *Network) Tiles() int { return n.cfg.Width * n.cfg.Height }

// Attach registers the message handler for a tile. Exactly one handler per
// tile; re-attaching panics to catch wiring bugs.
func (n *Network) Attach(tile int, h Handler) {
	if n.handlers[tile] != nil {
		panic(fmt.Sprintf("noc: tile %d already has a handler", tile))
	}
	n.handlers[tile] = h
}

// Stats returns a snapshot of accumulated network statistics. In sharded
// mode the per-shard accumulators are merged in shard order — sums for
// counts and latency totals, max for the latency high-water mark, histogram
// merge for the hop distribution — so the result is deterministic for a
// deterministic run. Call only between windows (e.g. after the run).
func (n *Network) Stats() Stats {
	if len(n.stats) == 1 {
		return n.stats[0]
	}
	var out Stats
	for i := range n.stats {
		s := &n.stats[i]
		out.Messages += s.Messages
		out.Flits += s.Flits
		out.TotalLatency += s.TotalLatency
		if s.MaxLatency > out.MaxLatency {
			out.MaxLatency = s.MaxLatency
		}
		out.HopCount += s.HopCount
		out.HopHist.Merge(&s.HopHist)
	}
	return out
}

// SetDelay installs a per-message injection-delay hook (nil removes it).
// With no hook installed the send path is untouched; with one installed,
// every message's route start is clamped to preserve per-(src,dst) FIFO
// order even when only some messages are delayed.
func (n *Network) SetDelay(fn func(src, dst int) sim.Time) {
	if n.group != nil && fn != nil {
		panic("noc: injection-delay hook is incompatible with sharded mode")
	}
	n.delay = fn
	if fn != nil && n.minStart == nil {
		n.minStart = make([]sim.Time, n.Tiles()*n.Tiles())
	}
}

// LinkFlits returns the flits carried so far by tile's directed link in
// direction dir (an index into DirNames).
func (n *Network) LinkFlits(tile, dir int) uint64 { return n.linkFlits[tile][dir] }

// XY returns mesh coordinates for a tile.
func (n *Network) XY(tile int) (x, y int) {
	return tile % n.cfg.Width, tile / n.cfg.Width
}

// Hops returns the XY-routing hop count between two tiles.
func (n *Network) Hops(src, dst int) int {
	sx, sy := n.XY(src)
	dx, dy := n.XY(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// flits converts a byte size to a flit count (minimum one).
func (n *Network) flits(bytes int) int {
	f := (bytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Post injects a message built from the network's internal pool: the
// message struct is recycled after the destination handler returns, so the
// steady-state send path allocates nothing. Handlers must not retain the
// *Message past their return (retaining the Payload is fine — the network
// never touches it after delivery).
func (n *Network) Post(src, dst, bytes int, payload any) {
	pool := 0
	if n.group != nil {
		pool = n.shardOf[src]
	}
	var m *Message
	if k := len(n.free[pool]); k > 0 {
		m = n.free[pool][k-1]
		n.free[pool][k-1] = nil
		n.free[pool] = n.free[pool][:k-1]
	} else {
		m = &Message{}
	}
	m.Src, m.Dst, m.Bytes, m.Payload = src, dst, bytes, payload
	m.pooled = true
	n.route(m)
}

// Send injects a caller-owned message at the current cycle. Delivery invokes
// the destination tile's handler at the computed arrival time. The message
// is never recycled; allocation-sensitive senders should use Post.
func (n *Network) Send(m *Message) {
	m.pooled = false
	n.route(m)
}

// route applies the optional injection-delay hook, then hands the message
// to routeNow — immediately on the common path, or via a scheduled event
// when the start was pushed into the future.
func (n *Network) route(m *Message) {
	if n.delay == nil {
		n.routeNow(m)
		return
	}
	now := n.engine.Now()
	start := now + n.delay(m.Src, m.Dst)
	k := m.Src*n.Tiles() + m.Dst
	if min := n.minStart[k]; start < min {
		start = min
	}
	n.minStart[k] = start + 1
	if start > now {
		m.net = n
		n.engine.AtCall(start, routeNowEvent, m)
		return
	}
	n.routeNow(m)
}

// routeNowEvent resumes a jitter-delayed message at its clamped start time.
func routeNowEvent(arg any) {
	m := arg.(*Message)
	m.net.routeNow(m)
}

// routeNow injects the message: a local delivery, or the first hop of its
// per-hop walk.
func (n *Network) routeNow(m *Message) {
	if m.Src < 0 || m.Src >= n.Tiles() || m.Dst < 0 || m.Dst >= n.Tiles() {
		panic(fmt.Sprintf("noc: bad route %d->%d", m.Src, m.Dst))
	}
	inject := n.engineAt(m.Src).Now()
	flits := n.flits(m.Bytes)
	st := n.statsAt(m.Src)
	st.Messages++
	st.Flits += uint64(flits)
	st.HopHist.Observe(uint64(n.Hops(m.Src, m.Dst)))
	m.net = n
	m.inject = inject
	m.nflits = flits

	if m.Src == m.Dst {
		n.engineAt(m.Src).AtCall(inject+n.cfg.LocalLatency, deliverMsg, m)
		return
	}
	m.at = m.Src
	n.hop(m)
}

// hop reserves the link out of m.at for the head flit, which is ready to
// leave now, and schedules hopArrived at the next router. Called at
// injection time for the first hop and from hopArrived for the rest, so the
// head-ready time is always the current cycle.
func (n *Network) hop(m *Message) {
	next, dir := n.nextHop(m.at, m.Dst)
	// The head must wait for the link to be free, then occupies it for the
	// message's full flit count.
	start := n.engineAt(m.at).Now()
	if free := n.linkFree[m.at][dir]; free > start {
		start = free
	}
	n.linkFree[m.at][dir] = start + sim.Time(m.nflits)
	n.linkFlits[m.at][dir] += uint64(m.nflits)
	n.statsAt(m.at).HopCount++
	arrive := start + n.cfg.RouterLatency + n.cfg.LinkLatency
	if n.group != nil {
		if from, to := n.shardOf[m.at], n.shardOf[next]; from != to {
			// Boundary hop: hand the message to the owning shard. arrive is
			// at least now+RouterLatency+LinkLatency >= now+lookahead (the
			// constraint SetShards enforced), so the post is always
			// timestamp-safe; after this call the source shard must not
			// touch m again.
			m.at = next
			if n.crossCheck != nil {
				n.group.Post(from, to, arrive, crossArrived, m)
			} else {
				n.group.Post(from, to, arrive, hopArrived, m)
			}
			return
		}
	}
	m.at = next
	n.engineAt(m.at).AtCall(arrive, hopArrived, m)
}

// crossArrived is hopArrived for boundary-crossing hops on a monitored
// network: it reports the arrival to the installed crossCheck first.
func crossArrived(arg any) {
	m := arg.(*Message)
	n := m.net
	n.crossCheck(n.shardOf[m.at], n.engineAt(m.at).Now())
	hopArrived(arg)
}

// hopArrived fires when the head flit reaches a router: either the
// destination — where the tail trails the head by nflits-1 cycles — or an
// intermediate hop, where the head immediately contends for the next link.
func hopArrived(arg any) {
	m := arg.(*Message)
	n := m.net
	if m.at == m.Dst {
		e := n.engineAt(m.at)
		e.AtCall(e.Now()+sim.Time(m.nflits-1), deliverMsg, m)
		return
	}
	n.hop(m)
}

// deliverMsg is the delivery event handler: it records latency statistics,
// invokes the destination handler, and recycles pool-owned messages.
func deliverMsg(arg any) {
	m := arg.(*Message)
	n := m.net
	st := n.statsAt(m.Dst)
	lat := n.engineAt(m.Dst).Now() - m.inject
	st.TotalLatency += lat
	if lat > st.MaxLatency {
		st.MaxLatency = lat
	}
	h := n.handlers[m.Dst]
	if h == nil {
		panic(fmt.Sprintf("noc: no handler attached to tile %d", m.Dst))
	}
	pool := 0
	if n.group != nil {
		pool = n.shardOf[m.Dst]
	}
	h(m)
	if m.pooled {
		*m = Message{}
		n.free[pool] = append(n.free[pool], m)
	}
}

// nextHop computes XY routing: correct X first, then Y.
func (n *Network) nextHop(at, dst int) (next, dir int) {
	ax, ay := n.XY(at)
	dx, dy := n.XY(dst)
	switch {
	case ax < dx:
		return at + 1, dirEast
	case ax > dx:
		return at - 1, dirWest
	case ay < dy:
		return at + n.cfg.Width, dirSouth
	case ay > dy:
		return at - n.cfg.Width, dirNorth
	}
	panic("noc: nextHop called with at == dst")
}
