package sim

import "fmt"

// slot is the engine-owned storage for one scheduled event. Slots are
// pooled: after an event fires (or a cancelled slot is collected) the
// slot returns to the engine's free list and is reused by a later
// Schedule, so the steady-state hot path allocates nothing. The
// generation counter distinguishes successive occupancies of one slot, so
// a stale Event handle can never touch a recycled slot.
type slot struct {
	gen  uint64 // bumped on release; live Event handles must match
	fn   func()
	afn  func(any) // arg-style callback (ScheduleArg), exclusive with fn
	arg  any
	name string
	idx  uint32 // the slot's index in Engine.slots
	heap bool   // queued in the heap rather than a FIFO lane

	// A cancelled slot stays queued as a tombstone until it reaches the
	// front or the engine compacts the heap (see Engine), so Cancel needs
	// no per-slot queue position.
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

// entry is one queued event as the queues see it: its (when, seq) key
// and the index of its slot. It holds no pointer, so moving entries
// through the heap needs no write barrier and comparing two never
// dereferences a slot.
type entry struct {
	when Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	slot uint32
}

// before orders entries by (when, seq): time first, FIFO at one instant.
func (a entry) before(b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// fifo is a queue of entries that arrive already sorted by (when, seq):
// the same-instant lane and the fixed-delay lanes. Pop advances a cursor;
// push reclaims the consumed prefix once it is at least half the buffer,
// so both are O(1) amortized and a lane that never drains stays bounded.
type fifo struct {
	q  []entry
	at int // consumption cursor
}

func (f *fifo) empty() bool { return f.at == len(f.q) }

func (f *fifo) head() entry { return f.q[f.at] }

func (f *fifo) push(x entry) {
	if len(f.q) == cap(f.q) && f.at > 0 && 2*f.at >= len(f.q) {
		n := copy(f.q, f.q[f.at:])
		f.q = f.q[:n]
		f.at = 0
	}
	f.q = append(f.q, x)
}

func (f *fifo) pop() {
	f.at++
	if f.at == len(f.q) {
		f.q = f.q[:0]
		f.at = 0
	}
}

// queued returns the entries still queued, front first.
func (f *fifo) queued() []entry { return f.q[f.at:] }

// reset empties the lane, keeping its buffer.
func (f *fifo) reset() {
	f.q = f.q[:0]
	f.at = 0
}

// Queue identities: where an entry is queued. Fixed-delay lane i is
// srcDelay+i.
const (
	srcNone  = -2
	srcHeap  = -1
	srcNow   = 0
	srcDelay = 1
)

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all simulated components run inside event callbacks
// on the goroutine that calls Run or Step.
//
// Events live in pooled slots in an engine-owned table; the queues hold
// pointer-free entries that name a slot by index. There are three kinds
// of queue, and the front event is the (when, seq) minimum of their
// heads:
//
//   - a 4-ary min-heap for events at arbitrary future times;
//   - a FIFO lane for events scheduled at the current instant (the
//     timer-tick burst pattern: handlers scheduling follow-up work "now"
//     bypass the heap entirely);
//   - one FIFO lane per fixed delay obtained with NewDelay. Such events
//     are always scheduled the same positive delay ahead, so they arrive
//     sorted by (when, seq) and need no heap.
//
// Cancel marks the slot and leaves its entry queued as a tombstone,
// which keeps the queues free of index bookkeeping. The heap compacts
// itself: once its tombstones reach compactMin and outnumber the live
// events in the heap, they all go back to the free list and the heap is
// rebuilt in place. A compaction costs O(heap) and removes at least half
// the heap, so it is O(1) per Cancel on average, and the heap never holds
// more than 2·(live events in the heap)+compactMin entries. A re-armed
// timer deadline, cancelled on every tick, therefore cannot pile up.
// Lane tombstones leave when they reach the front.
type Engine struct {
	now     Time
	seq     uint64
	slots   []*slot  // slot table, indexed by entry.slot
	heap    []entry  // 4-ary min-heap by (when, seq)
	nowq    fifo     // events with when == now
	delays  []fifo   // fixed-delay lanes, one per NewDelay
	free    []uint32 // indices of pooled slots
	live    int      // queued and not cancelled
	tombs   int      // cancelled entries queued in the heap
	rng     *RNG
	stopped bool
	// keep is Restore's scratch mark, by slot: the slots a snapshot
	// reinstalls. It is kept so a fork loop restores without allocating.
	keep []bool

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
	s, x := e.fill(at, name, fn, afn, arg)
	s.heap = at != e.now
	if s.heap {
		e.heapPush(x)
	} else {
		// Same-instant lane: appended in seq order, so the lane is itself
		// sorted and the only ordering question against the other queues
		// is a seq comparison at equal times (see front).
		e.nowq.push(x)
	}
	if e.scheduleHook != nil {
		e.scheduleHook(at)
	}
	return Event{s: s, gen: s.gen, when: at}
}

// fill takes a slot for an event at at, stores its callback and label,
// draws its seq, and returns the slot with the entry that queues it.
func (e *Engine) fill(at Time, name string, fn func(), afn func(any), arg any) (*slot, entry) {
	s := e.alloc()
	s.fn = fn
	s.afn = afn
	s.arg = arg
	s.name = name
	x := entry{when: at, seq: e.seq, slot: s.idx}
	e.seq++
	e.live++
	return s, x
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

// Delay is a fixed-delay lane of an Engine: every event scheduled on it
// fires the same positive delay after it was scheduled. Those events
// arrive already sorted by (when, seq), so the lane is a FIFO with O(1)
// push and pop instead of a heap position. Ordering is exact: an event
// on a lane takes its seq from the engine counter like any other, so it
// fires at the same point of the engine's total (when, seq) order as it
// would through the heap. Obtain lanes once, at construction, with
// Engine.NewDelay.
type Delay struct {
	eng  *Engine
	d    Duration
	lane int // index into eng.delays
}

// NewDelay adds a fixed-delay lane for delay d, which must be positive.
// Every lane is checked when the engine looks for its front event, so
// create one per distinct delay a hot path schedules with, not one per
// event.
func (e *Engine) NewDelay(d Duration) *Delay {
	if d <= 0 {
		panic(fmt.Sprintf("sim: fixed-delay lane with non-positive delay %v", d))
	}
	e.delays = append(e.delays, fifo{})
	return &Delay{eng: e, d: d, lane: len(e.delays) - 1}
}

// ScheduleArg is Engine.ScheduleArg at the lane's fixed delay d from
// now: fn(arg) runs at Now()+d. The event is cancellable like any other;
// a cancelled lane event leaves the lane when it reaches the front.
func (l *Delay) ScheduleArg(name string, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e := l.eng
	at := e.now.Add(l.d)
	f := &e.delays[l.lane]
	if !f.empty() && at < f.q[len(f.q)-1].when {
		panic(fmt.Sprintf("sim: fixed-delay lane event %q at %v before the lane's tail", name, at))
	}
	s, x := e.fill(at, name, nil, fn, arg)
	s.heap = false
	f.push(x)
	if e.scheduleHook != nil {
		e.scheduleHook(at)
	}
	return Event{s: s, gen: s.gen, when: at}
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
	if s.heap {
		e.tombs++
		e.maybeCompact()
	}
}

// compactMin is the fewest heap tombstones worth a compaction.
const compactMin = 16

// maybeCompact compacts the heap when its tombstones reach compactMin and
// outnumber the live events in the heap. Every heap Cancel and every
// fired heap event checks it, so after any engine call the heap holds at
// most 2·(live events in the heap)+compactMin entries.
func (e *Engine) maybeCompact() {
	if e.tombs >= compactMin && 2*e.tombs > len(e.heap) {
		e.compact()
	}
}

// compact releases every heap tombstone to the free list and restores the
// heap order in place. The lanes are left alone: their tombstones are not
// counted and leave when they reach the front.
func (e *Engine) compact() {
	h := e.heap
	n := 0
	for _, x := range h {
		if s := e.slots[x.slot]; s.canceled {
			e.release(s)
		} else {
			h[n] = x
			n++
		}
	}
	e.heap = h[:n]
	e.heapify()
	e.tombs = 0
}

// alloc takes a slot from the pool, or mints one.
func (e *Engine) alloc() *slot {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return e.slots[i]
	}
	// Generation 0 is reserved for the zero Event.
	s := &slot{gen: 1, idx: uint32(len(e.slots))}
	e.slots = append(e.slots, s)
	return s
}

// release returns a dequeued slot to the pool, invalidating outstanding
// handles by bumping the generation.
func (e *Engine) release(s *slot) {
	s.gen++
	s.fn = nil
	s.afn = nil
	s.arg = nil
	s.name = ""
	s.canceled = false
	e.free = append(e.free, s.idx)
}

// front returns the front entry — the (when, seq) minimum across the
// heap and the lanes — and the queue holding it, or srcNone when every
// queue is empty.
func (e *Engine) front() (entry, int) {
	var best entry
	src := srcNone
	if len(e.heap) > 0 {
		best, src = e.heap[0], srcHeap
	}
	if !e.nowq.empty() {
		if x := e.nowq.head(); src == srcNone || x.before(best) {
			best, src = x, srcNow
		}
	}
	for i := range e.delays {
		if f := &e.delays[i]; !f.empty() {
			if x := f.head(); src == srcNone || x.before(best) {
				best, src = x, srcDelay+i
			}
		}
	}
	return best, src
}

// dequeue removes the front entry from queue src.
func (e *Engine) dequeue(src int) {
	switch src {
	case srcHeap:
		e.heapPop()
	case srcNow:
		e.nowq.pop()
	default:
		e.delays[src-srcDelay].pop()
	}
}

// nextLive releases cancelled entries at the front and returns the next
// live entry without removing it, with its queue; src is srcNone when
// the queue is drained.
func (e *Engine) nextLive() (entry, int) {
	for {
		x, src := e.front()
		if src == srcNone {
			return x, src
		}
		s := e.slots[x.slot]
		if !s.canceled {
			return x, src
		}
		e.dequeue(src)
		if src == srcHeap {
			e.tombs--
		}
		e.release(s)
	}
}

// fire dequeues the live front entry x from queue src, advances the
// clock, and runs its callback. The slot is recycled before the callback
// runs, so callbacks observe their own event as already fired.
func (e *Engine) fire(x entry, src int) {
	e.dequeue(src)
	if x.when < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = x.when
	e.fired++
	e.live--
	if src == srcHeap {
		e.maybeCompact()
	}
	s := e.slots[x.slot]
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
// runs next. Cancelled entries at the front are collected as a side
// effect, exactly as Step would.
func (e *Engine) NextAt() (Time, bool) {
	if e.stopped {
		return 0, false
	}
	x, src := e.nextLive()
	if src == srcNone {
		return 0, false
	}
	return x.when, true
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when the queue is empty or Stop was called.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	x, src := e.nextLive()
	if src == srcNone {
		return false
	}
	e.fire(x, src)
	return true
}

// Run fires events until the queue is empty, Stop is called, or the next
// event lies strictly after until; the clock is then advanced to until if
// it has not passed it. It returns the number of events fired.
func (e *Engine) Run(until Time) uint64 {
	start := e.fired
	for !e.stopped {
		x, src := e.nextLive()
		if src == srcNone || x.when > until {
			break
		}
		e.fire(x, src)
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

// heapPush inserts x into the 4-ary min-heap.
func (e *Engine) heapPush(x entry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	e.heap = h
}

// heapPop removes the heap minimum.
func (e *Engine) heapPop() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.heap = h
	if n > 0 {
		siftDown(h, 0)
	}
}

// heapify restores the heap order over the whole heap in O(n).
func (e *Engine) heapify() {
	h := e.heap
	for i := (len(h) - 2) / 4; len(h) > 1 && i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown moves h[i] down the 4-ary heap: at each node it promotes the
// smallest of up to four children until the moved entry fits.
func siftDown(h []entry, i int) {
	x := h[i]
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(h[best]) {
				best = j
			}
		}
		if !h[best].before(x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}
