package sim

import "fmt"

// slot is the engine-owned storage for one scheduled event. Slots are
// pooled: after an event fires (or a cancelled slot is collected) the
// slot returns to the engine's free list and is reused by a later
// Schedule, so the steady-state hot path allocates nothing. The
// generation counter distinguishes successive occupancies of one slot, so
// a stale Event handle can never touch a recycled slot.
type slot struct {
	when Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	gen  uint64 // bumped on release; live Event handles must match
	fn   func()
	afn  func(any) // arg-style callback (ScheduleArg), exclusive with fn
	arg  any
	name string
	lane bool // queued in the same-instant lane rather than the heap

	// A cancelled slot stays queued as a tombstone until it reaches the
	// front or the engine compacts the heap (see Engine), so Cancel needs
	// no per-slot heap index.
	canceled    bool
	canceledGen uint64 // generation of the most recently cancelled occupancy
}

// Event is a cancellable handle to a scheduled callback, returned by
// Schedule and friends. It is a small value (copy it freely; the zero
// Event is valid and refers to nothing). Once the callback has fired, the
// handle goes stale: Cancel becomes a guaranteed no-op — the engine
// recycles event storage internally, and the generation check in the
// handle prevents a stale Cancel from ever touching a later event that
// happens to reuse the same slot.
type Event struct {
	s    *slot
	gen  uint64
	when Time
}

// When reports the time the event is (or was) scheduled to fire.
func (e Event) When() Time { return e.when }

// Pending reports whether the event is still queued: scheduled, not yet
// fired, and not cancelled.
func (e Event) Pending() bool { return e.s != nil && e.s.gen == e.gen && !e.s.canceled }

// Canceled reports whether this event was cancelled before firing. The
// answer stays correct until the engine reuses the underlying slot for
// another event that is itself cancelled; treat it as a debugging aid,
// not long-term state.
func (e Event) Canceled() bool { return e.s != nil && e.s.canceledGen == e.gen }

// Name reports the optional debug label given at scheduling time, or ""
// once the event has fired and its slot has been recycled.
func (e Event) Name() string {
	if e.s != nil && e.s.gen == e.gen {
		return e.s.name
	}
	return ""
}

// slotLess orders slots by (when, seq): time first, FIFO at one instant.
func slotLess(a, b *slot) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all simulated components run inside event callbacks
// on the goroutine that calls Run or Step.
//
// The queue is a 4-ary min-heap of pooled slots ordered by (when, seq),
// with a FIFO fast lane for events scheduled at the current instant (the
// timer-tick burst pattern: handlers scheduling follow-up work "now"
// bypass the heap entirely). Cancel marks the slot and leaves it queued
// as a tombstone, which keeps the heap free of index bookkeeping. The
// heap compacts itself: once its tombstones reach compactMin and
// outnumber the live events, they all go back to the free list and the
// heap is rebuilt in place. A compaction costs O(heap) and removes at
// least half the heap, so it is O(1) per Cancel on average, and the heap
// never holds more than 2·Pending()+compactMin slots. A re-armed timer
// deadline, cancelled on every tick, therefore cannot pile up.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*slot // 4-ary min-heap by (when, seq)
	lane    []*slot // FIFO of events with when == now
	laneAt  int     // lane consumption cursor
	free    []*slot // slot pool
	live    int     // queued and not cancelled
	tombs   int     // cancelled slots queued in the heap
	rng     *RNG
	stopped bool

	// fired counts events executed; useful as a progress/complexity metric.
	fired uint64

	// scheduleHook, when set, observes every successful schedule (the
	// event's timestamp, after insertion). Multiplexers that cache each
	// engine's earliest-event time — the cluster layer's index-min-heap —
	// use it to learn about cross-engine schedules without rescanning.
	// The hook must not schedule or cancel events.
	scheduleHook func(Time)
}

// NewEngine returns an engine with its clock at zero and a deterministic
// PRNG seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired or
// cancelled.
func (e *Engine) Pending() int { return e.live }

// Schedule enqueues fn to run at the absolute time at. Scheduling in the
// past (before Now) is a logic error and panics. The returned Event can
// be passed to Cancel.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.ScheduleNamed(at, "", fn)
}

// ScheduleNamed is Schedule with a debug label attached to the event.
func (e *Engine) ScheduleNamed(at Time, name string, fn func()) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.schedule(at, name, fn, nil, nil)
}

// ScheduleArg is ScheduleNamed for allocation-free hot paths: fn is a
// long-lived function value and arg its per-event argument, so callers
// avoid materializing a fresh closure for every event (the engine calls
// fn(arg) when the event fires). Pointer-shaped args do not allocate when
// boxed.
func (e *Engine) ScheduleArg(at Time, name string, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.schedule(at, name, nil, fn, arg)
}

func (e *Engine) schedule(at Time, name string, fn func(), afn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", name, at, e.now))
	}
	s := e.alloc()
	s.when = at
	s.seq = e.seq
	e.seq++
	s.fn = fn
	s.afn = afn
	s.arg = arg
	s.name = name
	s.lane = at == e.now
	e.live++
	if s.lane {
		// Same-instant fast lane: appended in seq order, so the lane is
		// itself sorted and the only ordering question against the heap
		// is a seq comparison at equal times (see peek).
		e.lane = append(e.lane, s)
	} else {
		e.heapPush(s)
	}
	if e.scheduleHook != nil {
		e.scheduleHook(at)
	}
	return Event{s: s, gen: s.gen, when: at}
}

// SetScheduleHook installs (or, with nil, removes) the schedule observer.
// See the Engine field doc; the single-engine hot path pays one nil check
// per schedule when no hook is installed.
func (e *Engine) SetScheduleHook(hook func(Time)) { e.scheduleHook = hook }

// After enqueues fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

// AfterNamed is After with a debug label.
func (e *Engine) AfterNamed(d Duration, name string, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleNamed(e.now.Add(d), name, fn)
}

// Cancel removes ev from the queue. Cancelling an already-fired,
// already-cancelled, or zero Event is a guaranteed no-op: the handle's
// generation no longer matches its (possibly recycled) slot, so a stale
// Cancel can never affect a later event. This simplifies callers that
// race a completion event against a preemption.
func (e *Engine) Cancel(ev Event) {
	s := ev.s
	if s == nil || s.gen != ev.gen || s.canceled {
		return
	}
	s.canceled = true
	s.canceledGen = ev.gen
	s.fn = nil
	s.afn = nil
	s.arg = nil
	e.live--
	if !s.lane {
		e.tombs++
		e.maybeCompact()
	}
}

// compactMin is the fewest heap tombstones worth a compaction.
const compactMin = 16

// maybeCompact compacts the heap when its tombstones reach compactMin and
// outnumber the live events. Every Cancel and every fired event checks
// it, so after any engine call the heap holds at most
// 2·Pending()+compactMin slots.
func (e *Engine) maybeCompact() {
	if e.tombs >= compactMin && e.tombs > e.live {
		e.compact()
	}
}

// compact releases every heap tombstone to the free list and restores the
// heap order in place. The lane is left alone: its tombstones are not
// counted and leave at the current instant anyway.
func (e *Engine) compact() {
	h := e.heap
	n := 0
	for _, s := range h {
		if s.canceled {
			e.release(s)
		} else {
			h[n] = s
			n++
		}
	}
	clear(h[n:])
	h = h[:n]
	for i := (n - 2) / 4; n > 1 && i >= 0; i-- {
		siftDown(h, i)
	}
	e.heap = h
	e.tombs = 0
}

// alloc takes a slot from the pool, or mints one.
func (e *Engine) alloc() *slot {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return s
	}
	return &slot{gen: 1} // generation 0 is reserved for the zero Event
}

// release returns a popped slot to the pool, invalidating outstanding
// handles by bumping the generation.
func (e *Engine) release(s *slot) {
	s.gen++
	s.fn = nil
	s.afn = nil
	s.arg = nil
	s.name = ""
	s.canceled = false
	e.free = append(e.free, s)
}

// peek returns the front slot — the (when, seq) minimum across the lane
// and the heap — without removing it, or nil when empty.
func (e *Engine) peek() *slot {
	var ln *slot
	if e.laneAt < len(e.lane) {
		ln = e.lane[e.laneAt]
	}
	var hp *slot
	if len(e.heap) > 0 {
		hp = e.heap[0]
	}
	switch {
	case ln == nil:
		return hp
	case hp == nil:
		return ln
	case slotLess(hp, ln):
		return hp
	default:
		return ln
	}
}

// pop removes and returns the front slot, or nil when empty.
func (e *Engine) pop() *slot {
	s := e.peek()
	if s == nil {
		return nil
	}
	if e.laneAt < len(e.lane) && e.lane[e.laneAt] == s {
		e.lane[e.laneAt] = nil
		e.laneAt++
		if e.laneAt == len(e.lane) {
			e.lane = e.lane[:0]
			e.laneAt = 0
		}
		return s
	}
	return e.heapPop()
}

// nextLive releases cancelled slots at the front and returns the next
// live slot without removing it, or nil when the queue is drained.
func (e *Engine) nextLive() *slot {
	for {
		s := e.peek()
		if s == nil || !s.canceled {
			return s
		}
		e.pop()
		if !s.lane {
			e.tombs--
		}
		e.release(s)
	}
}

// fire pops the front slot s (which must be live), advances the clock,
// and runs its callback. The slot is recycled before the callback runs,
// so callbacks observe their own event as already fired.
func (e *Engine) fire(s *slot) {
	e.pop()
	if s.when < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = s.when
	e.fired++
	e.live--
	e.maybeCompact()
	if s.afn != nil {
		afn, arg := s.afn, s.arg
		e.release(s)
		afn(arg)
		return
	}
	fn := s.fn
	e.release(s)
	fn()
}

// NextAt reports the timestamp of the next live event without firing it,
// or false when the queue is drained (or Stop was called). Multiplexers
// that interleave several engines — the cluster layer picking the
// globally earliest event across nodes — use this to decide whose Step
// runs next. Cancelled slots at the front are collected as a side effect,
// exactly as Step would.
func (e *Engine) NextAt() (Time, bool) {
	if e.stopped {
		return 0, false
	}
	s := e.nextLive()
	if s == nil {
		return 0, false
	}
	return s.when, true
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when the queue is empty or Stop was called.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	s := e.nextLive()
	if s == nil {
		return false
	}
	e.fire(s)
	return true
}

// Run fires events until the queue is empty, Stop is called, or the next
// event lies strictly after until; the clock is then advanced to until if
// it has not passed it. It returns the number of events fired.
func (e *Engine) Run(until Time) uint64 {
	start := e.fired
	for !e.stopped {
		s := e.nextLive()
		if s == nil || s.when > until {
			break
		}
		e.fire(s)
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
	return e.fired - start
}

// RunAll fires events until the queue drains or Stop is called.
func (e *Engine) RunAll() uint64 {
	start := e.fired
	for e.Step() {
	}
	return e.fired - start
}

// Stop halts Run/RunAll/Step after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// heapPush inserts s into the 4-ary min-heap.
func (e *Engine) heapPush(s *slot) {
	h := append(e.heap, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !slotLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes and returns the heap minimum.
func (e *Engine) heapPop() *slot {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.heap = h
	if n > 0 {
		siftDown(h, 0)
	}
	return top
}

// siftDown moves h[i] down the 4-ary heap: at each node it promotes the
// smallest of up to four children until the moved slot fits.
func siftDown(h []*slot, i int) {
	s := h[i]
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if slotLess(h[j], h[best]) {
				best = j
			}
		}
		if !slotLess(h[best], s) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = s
}
