package machine

import (
	"fmt"

	"khsim/internal/metrics"
	"khsim/internal/sim"
)

// This file composes the per-layer sim.Snapshotter implementations into
// whole-node and whole-cluster checkpoints (DESIGN.md §11). Ownership
// rule: every layer snapshots exactly the state it owns, and the node
// snapshots the layers it assembled plus whatever the OS/hypervisor
// stack registered. No layer holds a handle to a queued event: the
// deadlines a layer moves or drops are sim.Registers, which the engine
// snapshot records. Every restore is a plain state write, so restore
// order is immaterial.

// ActivityState records one Activity by pointer together with its whole
// value. Activities are shared across timelines (the same object lives
// on the core or in a saved context in both the snapshot and the
// divergent run), and an Exec activity that completes in the divergent
// run goes back to its core's free list and may be re-minted with a
// different label, callback and mask, so a snapshot must capture every
// field, not just the pointer or the progress. Layers that hold
// activities off-core (a hypervisor's saved VCPU stacks, a kernel's
// descheduled task contexts) record them with SnapshotActivity and
// reinstall them with Restore, mirroring what Core.Snapshot does for
// on-core activities.
type ActivityState struct {
	a *Activity
	v Activity
}

// SnapshotActivity captures a's whole value (nil-safe).
func SnapshotActivity(a *Activity) ActivityState {
	if a == nil {
		return ActivityState{}
	}
	return ActivityState{a: a, v: *a}
}

// Restore writes the recorded value back into the activity.
func (s ActivityState) Restore() {
	if s.a != nil {
		*s.a = s.v
	}
}

// coreState is one core's Snapshot payload.
type coreState struct {
	cur           *Activity
	curStart      sim.Time
	stack         []*Activity
	next          *Activity
	irqMasked     bool
	pendingAssert bool
	busy          sim.Duration
	preempts      uint64
	tlbInvals     uint64
	acts          []ActivityState
	free          []*Activity
}

// Snapshot captures the core's execution state: the running activity,
// the suspension stack, the switched-to activity,
// the Exec free list and mask/accounting state, including the TLB
// invalidation count. Core implements sim.Snapshotter.
func (c *Core) Snapshot() sim.State {
	s := &coreState{
		cur:           c.cur,
		curStart:      c.curStart,
		stack:         append([]*Activity(nil), c.stack...),
		next:          c.next,
		irqMasked:     c.irqMasked,
		pendingAssert: c.pendingAssert,
		busy:          c.busy,
		preempts:      c.preempts,
		tlbInvals:     c.tlbInvalidations,
		free:          append([]*Activity(nil), c.free...),
	}
	record := func(a *Activity) {
		if a != nil {
			s.acts = append(s.acts, SnapshotActivity(a))
		}
	}
	record(c.cur)
	for _, a := range c.stack {
		record(a)
	}
	record(c.next)
	return s
}

// Restore reinstalls a snapshot taken on this core. The engine snapshot
// carries the completion deadline, armed for the running activity. A
// snapshot holds no lazy core, so the core comes back eager.
func (c *Core) Restore(st sim.State) {
	s, ok := st.(*coreState)
	if !ok {
		panic(fmt.Sprintf("machine: Core.Restore of foreign state %T", st))
	}
	c.lazy = nil
	c.cur = s.cur
	c.curStart = s.curStart
	c.stack = append(c.stack[:0], s.stack...)
	c.next = s.next
	c.irqMasked = s.irqMasked
	c.pendingAssert = s.pendingAssert
	c.busy = s.busy
	c.preempts = s.preempts
	c.tlbInvalidations = s.tlbInvals
	for _, as := range s.acts {
		as.Restore()
	}
	// The free list comes back as captured, so an activity live in the
	// snapshot is never minted twice; an entry the divergent run minted
	// is marked released again (mint re-initialises the rest).
	c.free = append(c.free[:0], s.free...)
	for _, a := range c.free {
		a.released = true
	}
}

// namedSnapshotter is one OS/hypervisor component registered on a node.
type namedSnapshotter struct {
	name string
	s    sim.Snapshotter
}

// namedState pairs a registered component's name with its state.
type namedState struct {
	name  string
	state sim.State
}

// nodeState is Node's Snapshot payload.
type nodeState struct {
	engine  sim.State
	trace   sim.State
	metrics *metrics.Snapshot
	gic     sim.State
	timers  sim.State
	cores   []sim.State
	named   []namedState
	forkGen uint64
	// forks counts the timelines forked from this snapshot so far. It
	// lives in the snapshot, not the node: a restore rewinds the node's
	// own counter, so only the capture can carry the tally forward.
	forks uint64
}

// RegisterSnapshotter adds a software component (hypervisor, kernel,
// benchmark process, ring, ledger...) to the node's composite snapshot.
// Components snapshot and restore in registration order; register at
// assembly/boot time, before the first Snapshot. Names exist for
// mismatch diagnostics and must be unique per node.
func (n *Node) RegisterSnapshotter(name string, s sim.Snapshotter) {
	for _, ns := range n.snaps {
		if ns.name == name {
			panic(fmt.Sprintf("machine: duplicate snapshotter %q on node", name))
		}
	}
	n.snaps = append(n.snaps, namedSnapshotter{name: name, s: s})
}

// Snapshot settles the lazy cores, then captures the whole node: engine
// (event queue, clock, RNG), trace, metrics, GIC, timers, every core,
// and every registered component, so no snapshot holds a lazy core.
// Taking a snapshot is cheap — the expensive structures (stage-2 tables)
// snapshot by freezing for copy-on-write, and the engine snapshot is
// proportional to the pending-event count, not to history. Node
// implements sim.Snapshotter.
//
// Call between events (from outside Engine.Run, or at a quiesced
// instant); the contract is sim.Snapshotter's.
func (n *Node) Snapshot() sim.State {
	n.TouchCores()
	s := &nodeState{
		engine:  n.Engine.Snapshot(),
		trace:   n.Trace.Snapshot(),
		metrics: n.Metrics.Snapshot(),
		gic:     n.GIC.Snapshot(),
		timers:  n.Timers.Snapshot(),
		cores:   make([]sim.State, len(n.Cores)),
		forkGen: n.forkGen,
	}
	for i, c := range n.Cores {
		s.cores[i] = c.Snapshot()
	}
	for _, ns := range n.snaps {
		s.named = append(s.named, namedState{name: ns.name, state: ns.s.Snapshot()})
	}
	return s
}

// Restore rewinds the node to a snapshot previously taken from it. A
// component registered after the snapshot was taken has no recorded
// state and panics (snapshots are whole-node or nothing).
func (n *Node) Restore(st sim.State) {
	s, ok := st.(*nodeState)
	if !ok {
		panic(fmt.Sprintf("machine: Node.Restore of foreign state %T", st))
	}
	n.Engine.Restore(s.engine)
	n.Trace.Restore(s.trace)
	n.Metrics.Restore(s.metrics)
	n.GIC.Restore(s.gic)
	n.Timers.Restore(s.timers)
	for i, c := range n.Cores {
		c.Restore(s.cores[i])
	}
	if len(n.snaps) != len(s.named) {
		panic(fmt.Sprintf("machine: node has %d registered snapshotters, snapshot recorded %d",
			len(n.snaps), len(s.named)))
	}
	for i, ns := range n.snaps {
		if s.named[i].name != ns.name {
			panic(fmt.Sprintf("machine: snapshotter %d is %q, snapshot recorded %q", i, ns.name, s.named[i].name))
		}
		ns.s.Restore(s.named[i].state)
	}
	n.forkGen = s.forkGen
}

// Fork rewinds the node to snap so a new timeline can diverge from it,
// and reports the forked timeline's generation number (the original
// capture is generation 0, the first fork 1, and so on — the tally
// rides the snapshot, since rewinding the node also rewinds any counter
// it holds). Forking is copy-on-write where it matters — stage-2 tables
// share frozen page-table nodes until a timeline writes them — and
// time-multiplexed: one timeline runs at a time, and each Fork rewinds
// the node in place. Same seed, same fork point → every forked timeline
// that receives the same inputs replays bit-identically (the obscheck
// fork gate pins this). No simulation component reads the generation,
// so timelines cannot diverge on it.
func (n *Node) Fork(snap sim.State) uint64 {
	s, ok := snap.(*nodeState)
	if !ok {
		panic(fmt.Sprintf("machine: Node.Fork of foreign state %T", snap))
	}
	n.Restore(snap)
	s.forks++
	n.forkGen = s.forkGen + s.forks
	return n.forkGen
}

// Forks reports the current timeline's fork generation (diagnostics;
// nothing in the simulation reads it).
func (n *Node) Forks() uint64 { return n.forkGen }

// clusterState is Cluster's Snapshot payload.
type clusterState struct {
	nodes   []sim.State
	fabric  sim.State
	metrics *metrics.Snapshot
	vt      sim.Time
}

// Snapshot captures every node, the fabric (link cursors and fault
// state — in-flight messages live on destination engines and are
// captured by the node snapshots), the cluster metrics registry and
// global virtual time. Cluster implements sim.Snapshotter.
func (c *Cluster) Snapshot() sim.State {
	s := &clusterState{
		nodes:   make([]sim.State, len(c.Nodes)),
		fabric:  c.Fabric.Snapshot(),
		metrics: c.Metrics.Snapshot(),
		vt:      c.vt,
	}
	for i, n := range c.Nodes {
		s.nodes[i] = n.Snapshot()
	}
	return s
}

// Restore rewinds the cluster to a snapshot previously taken from it.
func (c *Cluster) Restore(st sim.State) {
	s, ok := st.(*clusterState)
	if !ok {
		panic(fmt.Sprintf("machine: Cluster.Restore of foreign state %T", st))
	}
	for i, n := range c.Nodes {
		n.Restore(s.nodes[i])
	}
	c.Fabric.Restore(s.fabric)
	c.Metrics.Restore(s.metrics)
	c.vt = s.vt
}
