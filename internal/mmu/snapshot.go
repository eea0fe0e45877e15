package mmu

import (
	"fmt"
	"slices"

	"khsim/internal/sim"
)

// tableState is Table's Snapshot payload: the root of a frozen
// copy-on-write tree plus the scalar accounting.
type tableState struct {
	root   *node
	nodes  int
	mapped uint64
}

// Snapshot captures the table in O(1): the root node is frozen and
// shared, and any later mutation through the live table copies only the
// nodes on its walk path (copy-on-write), so a fork costs O(dirty table
// pages), not O(mapped pages). Table implements sim.Snapshotter.
func (t *Table) Snapshot() sim.State {
	t.root.frozen = true
	return &tableState{root: t.root, nodes: t.nodes, mapped: t.mapped}
}

// Restore points the table back at a snapshot's frozen tree. The
// mutation generation is NOT rolled back: it advances past both the
// current and any previously observed value, so a WalkCache (or any
// other generation-tagged memo) can never see a stale translation — a
// rolled-back generation could numerically collide with one the cache
// recorded on the abandoned timeline (the ABA bug the regression test in
// walkcache_restore_test.go pins down).
func (t *Table) Restore(st sim.State) {
	s, ok := st.(*tableState)
	if !ok {
		panic(fmt.Sprintf("mmu: Table.Restore of foreign state %T", st))
	}
	s.root.frozen = true // the snapshot keeps ownership; divergence copies
	t.root = s.root
	t.nodes = s.nodes
	t.mapped = s.mapped
	t.gen++
}

// walkCacheState is WalkCache's Snapshot payload: only the hit/miss
// counters — cached translations are a memo, never state, and a restore
// must drop them (they may describe the abandoned timeline's mappings).
type walkCacheState struct {
	hits, misses uint64
}

// Snapshot captures the cache counters. WalkCache implements
// sim.Snapshotter so hypervisor snapshots can compose it directly.
func (w *WalkCache) Snapshot() sim.State {
	return &walkCacheState{hits: w.hits, misses: w.misses}
}

// Restore invalidates every cached translation and restores the
// counters. The flush is mandatory even though the generation check
// would usually catch staleness: restore is exactly the path where
// generation numbers from two timelines could otherwise collide.
func (w *WalkCache) Restore(st sim.State) {
	s, ok := st.(*walkCacheState)
	if !ok {
		panic(fmt.Sprintf("mmu: WalkCache.Restore of foreign state %T", st))
	}
	w.Flush()
	w.gen = w.tab.Gen()
	w.hits = s.hits
	w.misses = s.misses
}

// tlbState is TLB's Snapshot payload: a deep copy of every set, or nil
// data when the TLB held no valid entry.
type tlbState struct {
	data  [][]tlbEntry
	live  int
	clock uint64
	stats TLBStats
}

// Snapshot deep-copies the TLB contents, LRU clock and counters. TLB
// implements sim.Snapshotter. Unlike the page tables the TLB is small
// and fixed-size, so an eager copy (one allocation per set) is cheaper
// than CoW bookkeeping would be. An empty TLB records no sets: its
// invalid entries' other fields are never read.
func (t *TLB) Snapshot() sim.State {
	s := &tlbState{live: t.live, clock: t.clock, stats: t.stats}
	if t.live == 0 {
		return s
	}
	s.data = make([][]tlbEntry, len(t.data))
	for i, set := range t.data {
		s.data[i] = slices.Clone(set)
	}
	return s
}

// Restore reinstalls a TLB snapshot, entry for entry. It copies nothing
// when neither the live TLB nor the snapshot holds a valid entry, which
// makes a fork's TLB restore O(1) on every path that never fills one.
func (t *TLB) Restore(st sim.State) {
	s, ok := st.(*tlbState)
	if !ok {
		panic(fmt.Sprintf("mmu: TLB.Restore of foreign state %T", st))
	}
	switch {
	case s.data != nil:
		for i := range t.data {
			copy(t.data[i], s.data[i])
		}
	case t.live != 0:
		for _, set := range t.data {
			clear(set)
		}
	}
	t.live = s.live
	t.clock = s.clock
	t.stats = s.stats
}
