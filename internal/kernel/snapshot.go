package kernel

import (
	"fmt"

	"khsim/internal/machine"
	"khsim/internal/sim"
)

// This file implements the sim.Snapshotter contract (DESIGN.md §11) for
// the kernel substrate and its two scheduling policies. The kernel owns
// the task state machine and its counters; each policy owns its queues,
// tick schedule and RNG stream. Tasks are recorded by pointer plus their
// mutable fields — tasks are shared across timelines, like activities —
// and a restore panics if tasks were spawned after the snapshot was
// taken (snapshots are whole-kernel or nothing, mirroring Node.Restore).

// taskState is one task's mutable fields.
type taskState struct {
	t           *Task
	state       TaskState
	core        int // unbound kthreads migrate cores between wakes
	started     bool
	saved       []*machine.Activity
	acts        []machine.ActivityState
	vruntime    float64
	onRQ        bool
	ran         int
	activations uint64
}

// kernelState is Kernel's Snapshot payload.
type kernelState struct {
	started bool
	current []*Task
	tasks   []taskState
	pol     sim.State
}

// Snapshot captures the substrate — per-core current tasks and every
// task's scheduler state, including descheduled suspension-stack frames
// and their progress — and delegates to the policy for queue order, tick
// schedule and RNG stream. The counters live in the node's registry,
// which the node snapshot captures. Kernel implements sim.Snapshotter
// and registers itself on the node at construction, so node snapshots
// include it automatically.
func (k *Kernel) Snapshot() sim.State {
	s := &kernelState{
		started: k.started,
		current: append([]*Task(nil), k.current...),
	}
	for _, t := range k.tasks {
		ts := taskState{
			t:           t,
			state:       t.state,
			core:        t.core,
			started:     t.started,
			saved:       append([]*machine.Activity(nil), t.saved...),
			vruntime:    t.ent.vruntime,
			onRQ:        t.ent.onRQ,
			ran:         t.ran,
			activations: t.activations,
		}
		for _, a := range t.saved {
			ts.acts = append(ts.acts, machine.SnapshotActivity(a))
		}
		s.tasks = append(s.tasks, ts)
	}
	if ps, ok := k.pol.(sim.Snapshotter); ok {
		s.pol = ps.Snapshot()
	}
	return s
}

// Restore reinstalls a snapshot taken on this kernel. The node's engine
// must already be restored (Node.Restore guarantees it); a task spawned
// after the snapshot was taken panics.
func (k *Kernel) Restore(st sim.State) {
	s, ok := st.(*kernelState)
	if !ok {
		panic(fmt.Sprintf("kernel: Kernel.Restore of foreign state %T", st))
	}
	if len(k.tasks) != len(s.tasks) {
		panic(fmt.Sprintf("kernel: %d tasks live, snapshot recorded %d (spawn after snapshot?)",
			len(k.tasks), len(s.tasks)))
	}
	k.started = s.started
	copy(k.current, s.current)
	for i := range s.tasks {
		ts := &s.tasks[i]
		t := ts.t
		t.state = ts.state
		t.core = ts.core
		t.started = ts.started
		t.saved = append(t.saved[:0], ts.saved...)
		for _, as := range ts.acts {
			as.Restore()
		}
		t.ent.vruntime = ts.vruntime
		t.ent.onRQ = ts.onRQ
		t.ran = ts.ran
		t.activations = ts.activations
	}
	if ps, ok := k.pol.(sim.Snapshotter); ok {
		ps.Restore(s.pol)
	}
}

// rrState is RoundRobin's Snapshot payload: the per-core FIFO contents.
type rrState struct {
	rq [][]*Task
}

// Snapshot captures the per-core queue contents. The tick and
// context-switch activities in flight are captured by the cores they run
// on. RoundRobin implements sim.Snapshotter.
func (p *RoundRobin) Snapshot() sim.State {
	s := &rrState{rq: make([][]*Task, len(p.rq))}
	for i := range p.rq {
		s.rq[i] = append([]*Task(nil), p.rq[i].tasks...)
	}
	return s
}

// Restore reinstalls a snapshot taken on this policy.
func (p *RoundRobin) Restore(st sim.State) {
	s, ok := st.(*rrState)
	if !ok {
		panic(fmt.Sprintf("kernel: RoundRobin.Restore of foreign state %T", st))
	}
	for i := range p.rq {
		p.rq[i].tasks = append(p.rq[i].tasks[:0], s.rq[i]...)
	}
}

// cfsState is one CFS runqueue's mutable fields. Entity vruntime/onRQ
// live with their owning tasks and are restored by Kernel.Restore.
type cfsState struct {
	queue   []*Entity
	running *Entity
	minv    float64
}

// cfsPolState is CFSPolicy's Snapshot payload.
type cfsPolState struct {
	tickAt []sim.Time
	wakes  [][]wake
	woken  [][]*Task
	rng    [4]uint64
	cfs    []cfsState
}

// Snapshot captures the per-core CFS queues (order, running entity,
// minimum vruntime), the tick schedule, pending kthread wakes, the
// batches of ticks in flight and the policy's RNG stream. CFSPolicy
// implements sim.Snapshotter.
func (p *CFSPolicy) Snapshot() sim.State {
	s := &cfsPolState{
		tickAt: append([]sim.Time(nil), p.tickAt...),
		wakes:  make([][]wake, len(p.wakes)),
		woken:  make([][]*Task, len(p.woken)),
		rng:    p.rng.State(),
		cfs:    make([]cfsState, len(p.cfs)),
	}
	for i := range p.wakes {
		s.wakes[i] = append([]wake(nil), p.wakes[i]...)
		s.woken[i] = append([]*Task(nil), p.woken[i]...)
	}
	for i, c := range p.cfs {
		s.cfs[i] = cfsState{
			queue:   append([]*Entity(nil), c.queue...),
			running: c.running,
			minv:    c.minv,
		}
	}
	return s
}

// Restore reinstalls a snapshot taken on this policy. A node snapshot
// settles every lazy core first, so the restored policy holds no run of
// skipped ticks.
func (p *CFSPolicy) Restore(st sim.State) {
	s, ok := st.(*cfsPolState)
	if !ok {
		panic(fmt.Sprintf("kernel: CFSPolicy.Restore of foreign state %T", st))
	}
	clear(p.idle)
	copy(p.tickAt, s.tickAt)
	for i := range p.wakes {
		p.wakes[i] = append(p.wakes[i][:0], s.wakes[i]...)
		clear(p.woken[i])
		p.woken[i] = append(p.woken[i][:0], s.woken[i]...)
	}
	p.rng.SetState(s.rng)
	for i, c := range p.cfs {
		c.queue = append(c.queue[:0], s.cfs[i].queue...)
		c.running = s.cfs[i].running
		c.minv = s.cfs[i].minv
	}
}

// guestState is Guest's Snapshot payload.
type guestState struct {
	done    map[int]bool
	running map[int]bool
}

// Snapshot captures the guest substrate's per-VCPU done/running flags;
// its tick and device-interrupt counts are registry counters, which the
// node's registry snapshot rewinds. Workload processes attached to the
// guest snapshot themselves (they implement sim.Snapshotter and are
// registered on the node by whoever assembled the stack); policy hooks
// with state of their own (the Linux guest's deferred-work schedule) are
// captured by the wrapping kernel type. Guest implements sim.Snapshotter.
func (g *Guest) Snapshot() sim.State {
	s := &guestState{
		done:    make(map[int]bool, len(g.done)),
		running: make(map[int]bool, len(g.running)),
	}
	for k, v := range g.done {
		s.done[k] = v
	}
	for k, v := range g.running {
		s.running[k] = v
	}
	return s
}

// Restore reinstalls a snapshot taken on this guest.
func (g *Guest) Restore(st sim.State) {
	s, ok := st.(*guestState)
	if !ok {
		panic(fmt.Sprintf("kernel: Guest.Restore of foreign state %T", st))
	}
	g.done = make(map[int]bool, len(s.done))
	for k, v := range s.done {
		g.done[k] = v
	}
	g.running = make(map[int]bool, len(s.running))
	for k, v := range s.running {
		g.running[k] = v
	}
}
