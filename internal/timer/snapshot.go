package timer

import (
	"fmt"

	"khsim/internal/sim"
)

// bankState is Bank's Snapshot payload: each core's fired counters.
type bankState struct {
	fired [][numChannels]uint64
}

// Snapshot captures every core's fired counters. The armed deadlines are
// engine registers, which the engine's own snapshot records. Bank
// implements sim.Snapshotter.
func (b *Bank) Snapshot() sim.State {
	s := &bankState{fired: make([][numChannels]uint64, len(b.timers))}
	for i, t := range b.timers {
		s.fired[i] = t.fired
	}
	return s
}

// Restore reinstalls a snapshot taken on this bank.
func (b *Bank) Restore(st sim.State) {
	s, ok := st.(*bankState)
	if !ok {
		panic(fmt.Sprintf("timer: Bank.Restore of foreign state %T", st))
	}
	for i, t := range b.timers {
		t.fired = s.fired[i]
	}
}
