package sim

import "fmt"

// State is an opaque snapshot value produced by a Snapshotter. Each
// component defines its own concrete state type; callers treat it as a
// sealed token to hand back to Restore on the same component.
type State = any

// Snapshotter is the uniform checkpoint contract every stateful layer of
// the simulator implements: Snapshot captures the component's mutable
// state between events, Restore rewinds the component to a previously
// captured state. The determinism contract is strict — after Restore, a
// continued run must be bit-identical (traces, metrics, event counts) to
// an uninterrupted run from the snapshot point.
//
// Rules of use:
//
//   - Snapshot and Restore may only be called between events (never from
//     inside an engine callback of the engine being snapshotted).
//   - A State must be restored on the component that produced it.
//   - A State may be restored any number of times (fork-by-rewind).
//   - A component holds no handle to a queued event: a deadline its owner
//     moves or drops is a Register, which the engine snapshot records.
type Snapshotter interface {
	Snapshot() State
	Restore(State)
}

// slotSnap records one event queued on the heap or a lane at snapshot
// time: the queue and key that order it and its callback.
type slotSnap struct {
	x   entry
	src int // srcHeap, srcNow, or srcDelay+i
	slot
}

// engineState is the engine's Snapshot payload.
type engineState struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	rng     [4]uint64
	slots   []slotSnap // heap events in heap order, then each lane front first
	regs    []entry    // the register heap, in heap order
}

// Snapshot captures the engine's full scheduling state: clock, sequence
// and fired counters, PRNG state, every queued event (callbacks included
// — the callbacks reference long-lived component objects whose own state
// is captured by their components' Snapshotters) and every armed
// register with its deadline. It must be called between events. Engine
// implements Snapshotter.
func (e *Engine) Snapshot() State {
	e.dropVacant()
	st := &engineState{
		now:     e.now,
		seq:     e.seq,
		fired:   e.fired,
		stopped: e.stopped,
		rng:     e.rng.State(),
		slots:   make([]slotSnap, 0, e.live),
		regs:    append([]entry(nil), e.rheap...),
	}
	capture := func(xs []entry, src int) {
		for _, x := range xs {
			st.slots = append(st.slots, slotSnap{x: x, src: src, slot: e.slots[x.id]})
		}
	}
	capture(e.heap, srcHeap)
	capture(e.nowq.queued(), srcNow)
	for i := range e.delays {
		capture(e.delays[i].queued(), srcDelay+i)
	}
	return st
}

// Restore rewinds the engine to a snapshot taken earlier on this same
// engine. Every slot goes back to the free pool, and each recorded event
// takes a slot again and returns to the queue it was recorded in, the
// heap in its recorded order; the register heap is copied back as
// recorded, so a register armed in the snapshot is armed for the same
// firing and every other register, including one created after the
// snapshot, is disarmed.
//
// Pop order after restore is bit-identical to the uninterrupted run:
// (when, seq) is a strict total order over queued events, and every
// queue comes back in its recorded order.
func (e *Engine) Restore(st State) {
	s, ok := st.(*engineState)
	if !ok {
		panic(fmt.Sprintf("sim: Engine.Restore of foreign state %T", st))
	}
	e.heap = e.heap[:0]
	e.nowq.reset()
	for i := range e.delays {
		e.delays[i].reset()
	}
	clear(e.slots)
	e.free = e.free[:0]
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.free = append(e.free, uint32(i))
	}
	for i := range s.slots {
		sn := &s.slots[i]
		x := sn.x
		x.id = e.take()
		e.slots[x.id] = sn.slot
		switch sn.src {
		case srcHeap:
			e.heap = append(e.heap, x)
		case srcNow:
			e.nowq.push(x)
		default:
			e.delays[sn.src-srcDelay].push(x)
		}
	}
	for _, x := range e.rheap {
		e.rpos[x.id] = -1
	}
	for _, id := range e.vacant {
		e.rvac[id] = false
	}
	e.vacant = e.vacant[:0]
	e.rheap = append(e.rheap[:0], s.regs...)
	for i, x := range e.rheap {
		e.rpos[x.id] = int32(i)
	}
	e.live = len(s.slots)
	e.now = s.now
	e.seq = s.seq
	e.fired = s.fired
	e.stopped = s.stopped
	e.rng.SetState(s.rng)
}

// State exports the generator's raw state for snapshotting.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState reinstalls a state captured with State.
func (r *RNG) SetState(s [4]uint64) { r.s = s }

// traceState is the Trace's Snapshot payload.
type traceState struct {
	n       int
	nextSeq uint64
}

// Snapshot captures the trace position (record count and next insertion
// index). Trace implements Snapshotter; configuration toggles (enabled,
// spans) are deliberately not captured — they are operator settings, not
// simulated state.
func (t *Trace) Snapshot() State {
	return &traceState{n: len(t.records), nextSeq: t.nextSeq}
}

// Restore truncates the trace back to a snapshot position. Restoring a
// snapshot that is ahead of the current trace is a misuse and panics.
func (t *Trace) Restore(st State) {
	s, ok := st.(*traceState)
	if !ok {
		panic(fmt.Sprintf("sim: Trace.Restore of foreign state %T", st))
	}
	if s.n > len(t.records) {
		panic(fmt.Sprintf("sim: Trace.Restore to %d records, only %d recorded", s.n, len(t.records)))
	}
	t.records = t.records[:s.n]
	t.nextSeq = s.nextSeq
}
