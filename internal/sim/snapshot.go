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
//   - Event handles must not be held across a Restore by anything outside
//     the snapshotted state: handles recorded in the snapshot revalidate,
//     all others go stale.
type Snapshotter interface {
	Snapshot() State
	Restore(State)
}

// slotSnap records one live queued event at snapshot time: the slot it
// occupies, the queue and key that order it, and every field needed to
// reinstall it. Restore works in place: slots stay in the engine's table
// for its whole lifetime, so a snapshot slot always still exists.
type slotSnap struct {
	x    entry
	src  int // srcHeap, srcNow, or srcDelay+i
	gen  uint64
	fn   func()
	afn  func(any)
	arg  any
	name string
}

// engineState is the engine's Snapshot payload.
type engineState struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	rng     [4]uint64
	slots   []slotSnap // heap events, then each lane front first
}

// Snapshot captures the engine's full scheduling state: clock, sequence
// and fired counters, PRNG state, and every live queued event (callbacks
// included — the callbacks reference long-lived component objects whose
// own state is captured by their components' Snapshotters). Cancelled
// events are not recorded: they can never fire, and no handle can
// cancel them again. It must be called between events. Engine
// implements Snapshotter.
func (e *Engine) Snapshot() State {
	st := &engineState{
		now:     e.now,
		seq:     e.seq,
		fired:   e.fired,
		stopped: e.stopped,
		rng:     e.rng.State(),
		slots:   make([]slotSnap, 0, e.live),
	}
	capture := func(xs []entry, src int) {
		for _, x := range xs {
			if s := e.slots[x.slot]; !s.canceled {
				st.slots = append(st.slots, slotSnap{
					x: x, src: src, gen: s.gen,
					fn: s.fn, afn: s.afn, arg: s.arg, name: s.name,
				})
			}
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
// engine. It works in place over the slot table: the snapshot's slots
// are reinstalled with their recorded generations (which revalidates
// Event handles stored inside snapshotted component state), each back in
// the queue it was recorded in, and every other slot is retired to the
// free pool with a bumped generation (which invalidates handles minted
// after the snapshot). A snapshot holds no tombstones, so neither does
// the restored engine.
//
// Pop order after restore is bit-identical to the uninterrupted run:
// (when, seq) is a strict total order over queued events, each lane is
// restored front first, and the heap shape is behaviorally invisible.
func (e *Engine) Restore(st State) {
	s, ok := st.(*engineState)
	if !ok {
		panic(fmt.Sprintf("sim: Engine.Restore of foreign state %T", st))
	}
	// Mark the slots the snapshot reinstalls.
	if cap(e.keep) < len(e.slots) {
		e.keep = make([]bool, len(e.slots))
	}
	keep := e.keep[:len(e.slots)]
	clear(keep)
	for i := range s.slots {
		keep[s.slots[i].x.slot] = true
	}
	// Reset the queues, then retire every slot the snapshot does not
	// name, with a fresh generation so any handle minted on the abandoned
	// timeline is stale.
	e.heap = e.heap[:0]
	e.nowq.reset()
	for i := range e.delays {
		e.delays[i].reset()
	}
	e.free = e.free[:0]
	for i, sl := range e.slots {
		if !keep[i] {
			e.release(sl)
		}
	}
	// Reinstall the snapshot slots, each in its recorded queue.
	for i := range s.slots {
		sn := &s.slots[i]
		sl := e.slots[sn.x.slot]
		sl.gen = sn.gen
		sl.fn = sn.fn
		sl.afn = sn.afn
		sl.arg = sn.arg
		sl.name = sn.name
		sl.canceled = false
		sl.heap = sn.src == srcHeap
		switch sn.src {
		case srcHeap:
			e.heap = append(e.heap, sn.x)
		case srcNow:
			e.nowq.push(sn.x)
		default:
			e.delays[sn.src-srcDelay].push(sn.x)
		}
	}
	e.heapify()
	e.now = s.now
	e.seq = s.seq
	e.fired = s.fired
	e.stopped = s.stopped
	e.live = len(s.slots)
	e.tombs = 0
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
