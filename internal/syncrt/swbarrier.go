package syncrt

import (
	"fmt"
	"math/bits"

	"misar/internal/cpu"
	"misar/internal/fault"
	"misar/internal/memory"
)

// Software barriers. Both implementations are generation-counted so a
// barrier object can be reused indefinitely without sense-flip races.
//
//   central    : arrival count at Addr, release generation at Addr+8
//                (same line — the classic pthread-style contended barrier)
//   tournament : per-(round,thread) arrival flags and per-thread release
//                flags, each on a private cache line in the flag arena, so
//                all spinning is local (MCS & Scott's tournament barrier)
//   tree       : treeAry-way combining tree — per-node arrival counters and
//                release generations on private lines. Depth log4(goal)
//                instead of the tournament's log2(goal), at the price of a
//                fetch-and-add per node; the natural software baseline for
//                the 256/1024-tile machines, where log2 depth dominates.

const barrierPollCycles = 24 // polling interval while waiting for release

// barrierCallOverhead is the library-call cost of entering a software
// barrier (function call, participant bookkeeping).
const barrierCallOverhead = 25

func (t *T) swBarrier(b Barrier) {
	// Registered before any simulated operation: the arrival must be visible
	// to the checker before another participant can observe this thread's
	// count/flag update and release the episode.
	t.E.Check().BarrierArrive(b.Addr, t.E.ThreadID(), b.Goal, fault.WorldSW)
	t.E.Compute(barrierCallOverhead)
	switch t.lib.Barrier {
	case BarrierCentral:
		t.centralBarrier(b)
	case BarrierTournament:
		t.tournamentBarrier(b)
	case BarrierTree:
		t.treeBarrier(b)
	default:
		panic(fmt.Sprintf("syncrt: unknown barrier kind %d", t.lib.Barrier))
	}
}

// generation returns this thread's next generation number for barrier b.
func (t *T) generation(a memory.Addr) uint64 {
	g := t.gen[a] + 1
	t.gen[a] = g
	return g
}

func (t *T) centralBarrier(b Barrier) {
	g := t.generation(b.Addr)
	arrived := t.E.FetchAdd(b.Addr, 1) + 1
	if int(arrived) == b.Goal {
		// Every participant registered its arrival before its FetchAdd, so
		// the checker's episode is complete here — close it before the reset
		// stores let the next episode begin.
		t.E.Check().BarrierRelease(b.Addr)
		t.E.Store(b.Addr, 0)   // reset count for next episode
		t.E.Store(b.Addr+8, g) // publish release generation
		return
	}
	t.E.Poll(b.Addr+8, cpu.UntilGe, g, barrierPollCycles)
}

// Tournament flag addressing within the barrier's arena.
func tourArrive(b Barrier, round, tid int) memory.Addr {
	return b.flagBase + memory.Addr((round*b.Goal+tid)*memory.LineSize)
}

func tourRelease(b Barrier, rounds, tid int) memory.Addr {
	return b.flagBase + memory.Addr((rounds*b.Goal+tid)*memory.LineSize)
}

// tourRounds returns ceil(log2(goal)).
func tourRounds(goal int) int {
	if goal <= 1 {
		return 0
	}
	return bits.Len(uint(goal - 1))
}

func (t *T) tournamentBarrier(b Barrier) {
	if b.flagBase == 0 {
		panic("syncrt: tournament barrier requires an arena (use Arena.Barrier)")
	}
	i := t.E.ThreadID() % b.Goal
	g := t.generation(b.Addr)
	rounds := tourRounds(b.Goal)

	wonUpTo := 0 // rounds this thread won (it must release those losers)
	for k := 0; k < rounds; k++ {
		if i%(1<<(k+1)) == 0 {
			// Winner (or bye): wait for this round's loser, if it exists.
			partner := i + 1<<k
			if partner < b.Goal {
				t.E.Poll(tourArrive(b, k, partner), cpu.UntilGe, g, pauseCycles)
			}
			wonUpTo = k + 1
			continue
		}
		// Loser: notify the winner, then wait for release.
		t.E.Store(tourArrive(b, k, i), g)
		t.E.Poll(tourRelease(b, rounds, i), cpu.UntilGe, g, barrierPollCycles)
		break
	}
	// Release phase: wake the losers of every round this thread won,
	// top-down (the champion starts the cascade).
	if wonUpTo == rounds {
		// The champion saw every other participant's arrival flag, so the
		// checker's episode is complete; close it before the cascade frees
		// anyone into the next episode.
		t.E.Check().BarrierRelease(b.Addr)
	}
	for k := wonUpTo - 1; k >= 0; k-- {
		partner := i + 1<<k
		if partner < b.Goal {
			t.E.Store(tourRelease(b, rounds, partner), g)
		}
	}
}

// treeAry is the combining tree's fan-in. Four balances depth against
// per-node counter contention: a 1024-thread barrier is 5 levels deep
// (versus the tournament's 10 rounds) with at most 4 adders per counter.
const treeAry = 4

// treeNodes returns the per-level node counts of the combining tree over
// goal threads, leaves first: level 0 has ceil(goal/treeAry) nodes, each
// next level combines treeAry of the previous, down to a single root.
func treeNodes(goal int) []int {
	if goal <= 1 {
		return nil
	}
	var levels []int
	for n := goal; n > 1; {
		n = (n + treeAry - 1) / treeAry
		levels = append(levels, n)
	}
	return levels
}

// treeNodeLines is the flag-arena footprint: two private lines per node
// (arrival counter, release generation).
func treeNodeLines(goal int) int {
	total := 0
	for _, n := range treeNodes(goal) {
		total += n
	}
	return 2 * total
}

// Tree node addressing within the barrier's arena. Nodes are numbered level
// by level from the leaves; node (level, idx) owns two consecutive lines.
func treeNodeBase(b Barrier, levels []int, level, idx int) memory.Addr {
	before := 0
	for l := 0; l < level; l++ {
		before += levels[l]
	}
	return b.flagBase + memory.Addr(2*(before+idx)*memory.LineSize)
}

func treeArrive(b Barrier, levels []int, level, idx int) memory.Addr {
	return treeNodeBase(b, levels, level, idx)
}

func treeRelease(b Barrier, levels []int, level, idx int) memory.Addr {
	return treeNodeBase(b, levels, level, idx) + memory.Addr(memory.LineSize)
}

// treeFanIn returns how many arrivals node (level, idx) collects: treeAry
// for interior positions, fewer for the ragged last node of a level.
func treeFanIn(goal int, levels []int, level, idx int) int {
	prev := goal // arrivals into level 0 come from the threads themselves
	if level > 0 {
		prev = levels[level-1]
	}
	fan := prev - idx*treeAry
	if fan > treeAry {
		fan = treeAry
	}
	return fan
}

// treeBarrier is the combining-tree barrier: each thread fetch-adds into its
// leaf node's counter; the arrival that completes a node climbs to the
// parent, and the thread that completes the root starts a top-down release
// cascade along every climbed path. All spinning is on a node-private line.
func (t *T) treeBarrier(b Barrier) {
	if b.Goal == 1 {
		return
	}
	if b.flagBase == 0 {
		panic("syncrt: tree barrier requires an arena (use Arena.Barrier)")
	}
	i := t.E.ThreadID() % b.Goal
	g := t.generation(b.Addr)
	levels := treeNodes(b.Goal)

	// Climb while this thread's arrival completes a node, recording the
	// climbed path; stop (and spin) at the first incomplete node.
	idx := i / treeAry
	type node struct{ level, idx int }
	var climbed []node
	spinAt := node{-1, -1}
	for level := range levels {
		arrived := t.E.FetchAdd(treeArrive(b, levels, level, idx), 1) + 1
		if int(arrived) < treeFanIn(b.Goal, levels, level, idx) {
			spinAt = node{level, idx}
			break
		}
		// Completed the node: reset its counter for the next episode. Safe
		// before climbing — nobody re-arrives here until this thread's own
		// release write (below) lets the node's spinners leave the barrier.
		t.E.Store(treeArrive(b, levels, level, idx), 0)
		climbed = append(climbed, node{level, idx})
		idx /= treeAry
	}
	if spinAt.level >= 0 {
		t.E.Poll(treeRelease(b, levels, spinAt.level, spinAt.idx), cpu.UntilGe, g, barrierPollCycles)
	} else {
		// Completed the root: every participant's arrival has been combined
		// into this thread's final count — close the checker episode before
		// the cascade frees anyone into the next one.
		t.E.Check().BarrierRelease(b.Addr)
	}
	// Release top-down: wake the spinners of every node this thread
	// completed; each of them continues the cascade below its own node.
	for k := len(climbed) - 1; k >= 0; k-- {
		t.E.Store(treeRelease(b, levels, climbed[k].level, climbed[k].idx), g)
	}
}
