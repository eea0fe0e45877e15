package net

import (
	"fmt"

	"khsim/internal/sim"
)

// endpointState is the snapshotable part of an endpoint: its fault
// state. The engine and handlers are topology.
type endpointState struct {
	partitioned bool
	dropNext    int
	delayUntil  sim.Time
	delayExtra  sim.Duration
}

// fabricState is Fabric's Snapshot payload. In-flight messages are NOT
// here: a message in flight is a "net.deliver" event on the destination
// node's engine carrying an immutable *Message, so the engines' own
// snapshots capture and replay the in-flight set exactly.
type fabricState struct {
	busy      map[[2]NodeID]sim.Time
	seq       uint64
	stats     Stats
	endpoints []endpointState
}

// Snapshot copies the fabric's link cursors, send sequence, counters and
// per-endpoint fault state. Fabric implements sim.Snapshotter; restore
// it together with (after) every attached engine, or the in-flight
// message set and the cursors will disagree.
func (f *Fabric) Snapshot() sim.State {
	s := &fabricState{
		busy:      make(map[[2]NodeID]sim.Time, len(f.busy)),
		seq:       f.seq,
		stats:     f.stats,
		endpoints: make([]endpointState, len(f.nodes)),
	}
	for k, v := range f.busy {
		s.busy[k] = v
	}
	for i := range f.nodes {
		ep := &f.nodes[i]
		s.endpoints[i] = endpointState{
			partitioned: ep.partitioned,
			dropNext:    ep.dropNext,
			delayUntil:  ep.delayUntil,
			delayExtra:  ep.delayExtra,
		}
	}
	return s
}

// Restore reinstalls a snapshot taken on this fabric.
func (f *Fabric) Restore(st sim.State) {
	s, ok := st.(*fabricState)
	if !ok {
		panic(fmt.Sprintf("net: Fabric.Restore of foreign state %T", st))
	}
	f.busy = make(map[[2]NodeID]sim.Time, len(s.busy))
	for k, v := range s.busy {
		f.busy[k] = v
	}
	f.seq = s.seq
	f.stats = s.stats
	for i := range f.nodes {
		ep := &f.nodes[i]
		ep.partitioned = s.endpoints[i].partitioned
		ep.dropNext = s.endpoints[i].dropNext
		ep.delayUntil = s.endpoints[i].delayUntil
		ep.delayExtra = s.endpoints[i].delayExtra
	}
}
