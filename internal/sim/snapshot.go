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

// slotSnap records one queued slot at snapshot time: the slot's identity
// plus every field needed to reinstall it. The pointer is retained
// because restore works in place — slots are pooled for the engine's
// whole lifetime, so a snapshot slot always still exists at restore time.
type slotSnap struct {
	s           *slot
	when        Time
	seq         uint64
	gen         uint64
	fn          func()
	afn         func(any)
	arg         any
	name        string
	canceled    bool
	canceledGen uint64
}

// engineState is the engine's Snapshot payload.
type engineState struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	rng     [4]uint64
	slots   []slotSnap
}

// Snapshot captures the engine's full scheduling state: clock, sequence
// and fired counters, PRNG state, and every queued slot (callbacks
// included — the callbacks reference long-lived component objects whose
// own state is captured by their components' Snapshotters). It must be
// called between events. Engine implements Snapshotter.
func (e *Engine) Snapshot() State {
	st := &engineState{
		now:     e.now,
		seq:     e.seq,
		fired:   e.fired,
		stopped: e.stopped,
		rng:     e.rng.State(),
	}
	capture := func(s *slot) {
		st.slots = append(st.slots, slotSnap{
			s: s, when: s.when, seq: s.seq, gen: s.gen,
			fn: s.fn, afn: s.afn, arg: s.arg, name: s.name,
			canceled: s.canceled, canceledGen: s.canceledGen,
		})
	}
	for _, s := range e.heap {
		capture(s)
	}
	for _, s := range e.lane[e.laneAt:] {
		capture(s)
	}
	return st
}

// Restore rewinds the engine to a snapshot taken earlier on this same
// engine. It works in place: every slot the engine has ever minted is
// reachable through the heap, the lane, or the free pool, so restore
// reinstalls the snapshot slots (with their recorded generations, which
// revalidates Event handles stored inside snapshotted component state)
// and retires every other slot to the free pool with a bumped generation
// (which invalidates handles minted after the snapshot).
//
// Pop order after restore is bit-identical to the uninterrupted run:
// (when, seq) is a strict total order over queued slots, so the heap
// shape and the lane/heap placement are behaviorally invisible.
func (e *Engine) Restore(st State) {
	s, ok := st.(*engineState)
	if !ok {
		panic(fmt.Sprintf("sim: Engine.Restore of foreign state %T", st))
	}
	// Collect every known slot, marking the ones the snapshot reinstalls.
	inSnap := make(map[*slot]bool, len(s.slots))
	for i := range s.slots {
		inSnap[s.slots[i].s] = true
	}
	var retired []*slot
	collect := func(sl *slot) {
		if !inSnap[sl] {
			retired = append(retired, sl)
		}
	}
	for _, sl := range e.heap {
		collect(sl)
	}
	for _, sl := range e.lane[e.laneAt:] {
		collect(sl)
	}
	for _, sl := range e.free {
		collect(sl)
	}
	// Reset the queue containers.
	for i := range e.heap {
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	for i := range e.lane {
		e.lane[i] = nil
	}
	e.lane = e.lane[:0]
	e.laneAt = 0
	for i := range e.free {
		e.free[i] = nil
	}
	e.free = e.free[:0]
	// Reinstall the snapshot slots. All go through the heap: the lane is
	// purely a same-instant optimization and (when, seq) keeps order.
	live, tombs := 0, 0
	for i := range s.slots {
		sn := &s.slots[i]
		sl := sn.s
		sl.when = sn.when
		sl.seq = sn.seq
		sl.gen = sn.gen
		sl.fn = sn.fn
		sl.afn = sn.afn
		sl.arg = sn.arg
		sl.name = sn.name
		sl.canceled = sn.canceled
		sl.canceledGen = sn.canceledGen
		sl.lane = false
		e.heapPush(sl)
		if sn.canceled {
			tombs++
		} else {
			live++
		}
	}
	// Retire post-snapshot slots to the pool with a fresh generation so
	// any handle minted on the abandoned timeline is stale.
	for _, sl := range retired {
		sl.gen++
		sl.fn = nil
		sl.afn = nil
		sl.arg = nil
		sl.name = ""
		sl.canceled = false
		e.free = append(e.free, sl)
	}
	e.now = s.now
	e.seq = s.seq
	e.fired = s.fired
	e.stopped = s.stopped
	e.live = live
	e.tombs = tombs
	e.rng.SetState(s.rng)
	// The snapshot's lane tombstones are heap tombstones now.
	e.maybeCompact()
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
