package gic

import (
	"fmt"

	"khsim/internal/sim"
)

// distributorState is Distributor's Snapshot payload: copies of the
// per-IRQ configuration, the per-core bitsets and priority masks, and the
// counters.
type distributorState struct {
	state    []irqState
	pending  []uint64
	active   []uint64
	maskPrio []uint8
	stats    Stats
}

// Snapshot copies per-IRQ configuration, per-core pending/active sets,
// priority masks and counters. Distributor implements sim.Snapshotter.
// The delivery sink is topology, not state, and is left alone.
func (d *Distributor) Snapshot() sim.State {
	return &distributorState{
		state:    append([]irqState(nil), d.state...),
		pending:  append([]uint64(nil), d.pending...),
		active:   append([]uint64(nil), d.active...),
		maskPrio: append([]uint8(nil), d.maskPrio...),
		stats:    d.stats,
	}
}

// Restore reinstalls a snapshot taken on this distributor, copying it
// into the existing storage.
func (d *Distributor) Restore(st sim.State) {
	s, ok := st.(*distributorState)
	if !ok {
		panic(fmt.Sprintf("gic: Distributor.Restore of foreign state %T", st))
	}
	copy(d.state, s.state)
	copy(d.pending, s.pending)
	copy(d.active, s.active)
	copy(d.maskPrio, s.maskPrio)
	d.stats = s.stats
}
