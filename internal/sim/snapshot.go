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

// eventSnap records the callback of a pooled event register that is
// queued at snapshot time.
type eventSnap struct {
	id  uint32
	fn  func()
	afn func(any)
	arg any
}

// engineState is the engine's Snapshot payload.
type engineState struct {
	now     Time
	seq     uint64
	order   uint64
	fired   uint64
	stopped bool
	rng     [4]uint64
	heap    []entry     // the heap, in heap order
	events  []eventSnap // the callbacks of the event registers queued in it
}

// Snapshot captures the engine's full scheduling state: clock, sequence
// and fired counters, the order within the current instant, PRNG state, the heap of armed registers with their
// deadlines, and the callback of every queued event (the callbacks
// reference long-lived component objects whose own state is captured by
// their components' Snapshotters). It must be called between events.
// Engine implements Snapshotter.
func (e *Engine) Snapshot() State {
	e.dropVacant()
	st := &engineState{
		now:     e.now,
		seq:     e.seq,
		order:   e.order,
		fired:   e.fired,
		stopped: e.stopped,
		rng:     e.rng.State(),
		heap:    append([]entry(nil), e.heap...),
	}
	for _, x := range e.heap {
		if r := e.regs[x.id]; r.pooled {
			st.events = append(st.events, eventSnap{id: x.id, fn: r.fn, afn: r.afn, arg: r.arg})
		}
	}
	return st
}

// Restore rewinds the engine to a snapshot taken earlier on this same
// engine. The heap is copied back as recorded, so a register armed in
// the snapshot is armed for the same firing and every other register,
// including one created after the snapshot, is disarmed. Each queued
// event register gets its recorded callback back, and every other event
// register returns to the free list.
//
// Pop order after restore is bit-identical to the uninterrupted run:
// (when, seq) is a strict total order over pending firings, and the heap
// comes back in its recorded order.
func (e *Engine) Restore(st State) {
	s, ok := st.(*engineState)
	if !ok {
		panic(fmt.Sprintf("sim: Engine.Restore of foreign state %T", st))
	}
	for _, x := range e.heap {
		e.pos[x.id] = -1
	}
	for _, id := range e.vacant {
		e.vac[id] = false
	}
	e.vacant = e.vacant[:0]
	e.heap = append(e.heap[:0], s.heap...)
	for i, x := range e.heap {
		e.pos[x.id] = int32(i)
	}
	e.free = e.free[:0]
	for i := len(e.regs) - 1; i >= 0; i-- {
		if r := e.regs[i]; r.pooled && e.pos[i] < 0 {
			r.fn, r.afn, r.arg = nil, nil, nil
			e.free = append(e.free, uint32(i))
		}
	}
	for _, ev := range s.events {
		r := e.regs[ev.id]
		r.fn, r.afn, r.arg = ev.fn, ev.afn, ev.arg
	}
	e.now = s.now
	e.seq = s.seq
	e.order = s.order
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
