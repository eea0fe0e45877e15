package sim

import "fmt"

// slot is the engine-owned storage for one event queued on the heap or a
// lane. Slots are pooled: after an event fires its slot returns to the
// engine's free list and is reused by a later Schedule, so the
// steady-state hot path allocates nothing.
type slot struct {
	fn  func()
	afn func(any) // arg-style callback (ScheduleArg), exclusive with fn
	arg any
}

// entry is one queued event as the queues see it: its (when, seq) key
// and the index of its slot, or in the register heap of its register.
// It holds no pointer, so moving entries through a heap needs no write
// barrier and comparing two never dereferences anything.
type entry struct {
	when Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	id   uint32
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
	srcNone  = -3
	srcReg   = -2
	srcHeap  = -1
	srcNow   = 0
	srcDelay = 1
)

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all simulated components run inside event callbacks
// on the goroutine that calls Run or Step.
//
// There are four kinds of queue, each holding pointer-free entries, and
// the front event is the (when, seq) minimum of their heads:
//
//   - a 4-ary min-heap for events at arbitrary future times;
//   - a FIFO lane for events scheduled at the current instant (the
//     timer-tick burst pattern: handlers scheduling follow-up work "now"
//     bypass the heap entirely);
//   - one FIFO lane per fixed delay obtained with NewDelay. Such events
//     are always scheduled the same positive delay ahead, so they arrive
//     sorted by (when, seq) and need no heap;
//   - a binary min-heap of armed Registers, each register's position in
//     it kept in a dense table so re-arming and disarming are O(log n).
//
// Heap and lane events live in pooled slots and, once scheduled, always
// fire. A deadline that its owner moves or drops before it fires is a
// Register: the owner has one pending firing at a time, and the engine
// keeps at most one entry for it.
type Engine struct {
	now    Time
	seq    uint64
	slots  []slot   // slot table, indexed by heap and lane entries
	free   []uint32 // indices of pooled slots
	heap   []entry  // 4-ary min-heap by (when, seq)
	nowq   fifo     // events with when == now
	delays []fifo   // fixed-delay lanes, one per NewDelay
	live   int      // events queued on the heap and the lanes

	regs  []*Register // by register id
	rheap []entry     // binary min-heap of register entries by (when, seq)
	rpos  []int32     // each register's index in rheap, -1 when it has none
	// vacant lists the registers that fired or were disarmed since the
	// last front, in no particular order; rvac marks them by id. Each
	// keeps its rheap entry, disarmed, and the next Arm of a register
	// with no entry takes one over in place (see Register.Arm). front
	// and Snapshot remove the entries nobody took before they read the
	// heap, and Pending does not count them.
	vacant []uint32
	rvac   []bool

	rng     *RNG
	stopped bool

	// fired counts events executed; useful as a progress/complexity metric.
	fired uint64

	// scheduleHook, when set, observes every successful schedule and arm
	// (the event's timestamp, after insertion). Multiplexers that cache
	// each engine's earliest-event time — the cluster layer's
	// index-min-heap — use it to learn about cross-engine schedules
	// without rescanning. The hook must not schedule or arm events.
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

// Pending reports how many events are waiting to fire: scheduled events
// and armed registers.
func (e *Engine) Pending() int { return e.live + len(e.rheap) - len(e.vacant) }

// Schedule enqueues fn to run at the absolute time at. Scheduling in the
// past (before Now) is a logic error and panics.
func (e *Engine) Schedule(at Time, fn func()) {
	e.ScheduleNamed(at, "", fn)
}

// ScheduleNamed is Schedule with a label that names the event in the
// panic a schedule in the past raises.
func (e *Engine) ScheduleNamed(at Time, name string, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.schedule(at, name, fn, nil, nil)
}

// ScheduleArg is ScheduleNamed for allocation-free hot paths: fn is a
// long-lived function value and arg its per-event argument, so callers
// avoid materializing a fresh closure for every event (the engine calls
// fn(arg) when the event fires). Pointer-shaped args do not allocate when
// boxed.
func (e *Engine) ScheduleArg(at Time, name string, fn func(any), arg any) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.schedule(at, name, nil, fn, arg)
}

func (e *Engine) schedule(at Time, name string, fn func(), afn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", name, at, e.now))
	}
	x := e.fill(at, fn, afn, arg)
	if at != e.now {
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
}

// fill takes a slot for an event at at, stores its callback, draws its
// seq, and returns the entry that queues it.
func (e *Engine) fill(at Time, fn func(), afn func(any), arg any) entry {
	i := e.take()
	s := &e.slots[i]
	s.fn = fn
	s.afn = afn
	s.arg = arg
	x := entry{when: at, seq: e.seq, id: i}
	e.seq++
	e.live++
	return x
}

// take returns the index of a free slot, from the pool or newly added.
func (e *Engine) take() uint32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.slots = append(e.slots, slot{})
	return uint32(len(e.slots) - 1)
}

// SetScheduleHook installs (or, with nil, removes) the schedule observer.
// See the Engine field doc; the single-engine hot path pays one nil check
// per schedule when no hook is installed.
func (e *Engine) SetScheduleHook(hook func(Time)) { e.scheduleHook = hook }

// After enqueues fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now.Add(d), fn)
}

// AfterNamed is After with a label.
func (e *Engine) AfterNamed(d Duration, name string, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.ScheduleNamed(e.now.Add(d), name, fn)
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
// now: fn(arg) runs at Now()+d.
func (l *Delay) ScheduleArg(name string, fn func(any), arg any) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e := l.eng
	at := e.now.Add(l.d)
	f := &e.delays[l.lane]
	if !f.empty() && at < f.q[len(f.q)-1].when {
		panic(fmt.Sprintf("sim: fixed-delay lane event %q at %v before the lane's tail", name, at))
	}
	f.push(e.fill(at, nil, fn, arg))
	if e.scheduleHook != nil {
		e.scheduleHook(at)
	}
}

// Register is a re-armable deadline: an event bound to one callback when
// it is created, with at most one pending firing. Arm sets (or moves) the
// firing, Disarm drops it, and the register is disarmed again when the
// callback runs, so the callback may re-arm it. Ordering is exact: each
// Arm draws a seq from the engine counter, so the firing takes the same
// place in the engine's (when, seq) order as a Schedule at that moment
// would. A register lives as long as its engine; create one per owner at
// construction, not one per deadline. An engine snapshot records which
// registers are armed and for when, so a Restore re-arms and disarms them
// with the rest of the queue.
type Register struct {
	eng  *Engine
	id   uint32
	name string
	fn   func()
}

// NewRegister returns a disarmed register that runs fn whenever it fires.
func (e *Engine) NewRegister(name string, fn func()) *Register {
	if fn == nil {
		panic("sim: nil register callback")
	}
	r := &Register{eng: e, id: uint32(len(e.regs)), name: name, fn: fn}
	e.regs = append(e.regs, r)
	e.rpos = append(e.rpos, -1)
	e.rvac = append(e.rvac, false)
	return r
}

// Arm sets the register to fire at the absolute time at, replacing its
// pending firing if it has one. Arming in the past panics. The new
// firing overwrites an entry already in the register heap and moves it
// with one regFix where it can: the register's own entry, or else one
// that fired or was disarmed during the current event. Only with neither
// is an entry added.
func (r *Register) Arm(at Time) {
	e := r.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: arming register %q at %v before now %v", r.name, at, e.now))
	}
	x := entry{when: at, seq: e.seq, id: r.id}
	e.seq++
	p := e.rpos[r.id]
	switch {
	case p >= 0 && e.rvac[r.id]:
		e.unvacate(r.id)
	case p < 0 && len(e.vacant) > 0:
		v := e.vacant[len(e.vacant)-1]
		e.vacant = e.vacant[:len(e.vacant)-1]
		e.rvac[v] = false
		p, e.rpos[v] = e.rpos[v], -1
	}
	if p >= 0 {
		e.rheap[p] = x
		e.regFix(int(p))
	} else {
		e.rheap = append(e.rheap, x)
		e.regUp(len(e.rheap) - 1)
	}
	if e.scheduleHook != nil {
		e.scheduleHook(at)
	}
}

// Disarm drops the register's pending firing; it is a no-op on a
// disarmed register.
func (r *Register) Disarm() {
	if r.Armed() {
		r.eng.vacate(r.id)
	}
}

// Armed reports whether the register has a pending firing.
func (r *Register) Armed() bool { return r.eng.rpos[r.id] >= 0 && !r.eng.rvac[r.id] }

// When reports the time of the pending firing, or 0 when disarmed.
func (r *Register) When() Time {
	if r.Armed() {
		return r.eng.rheap[r.eng.rpos[r.id]].when
	}
	return 0
}

// vacate disarms register id but leaves its entry in the register heap
// for a later Arm in the same event to take over.
func (e *Engine) vacate(id uint32) {
	e.rvac[id] = true
	e.vacant = append(e.vacant, id)
}

// unvacate takes register id off the vacant list, whose order does not
// matter; its entry stays.
func (e *Engine) unvacate(id uint32) {
	e.rvac[id] = false
	last := len(e.vacant) - 1
	for i, v := range e.vacant {
		if v == id {
			e.vacant[i] = e.vacant[last]
			e.vacant = e.vacant[:last]
			return
		}
	}
}

// dropVacant removes the entries no Arm took over from the register heap.
func (e *Engine) dropVacant() {
	for _, id := range e.vacant {
		e.rvac[id] = false
		e.regRemove(int(e.rpos[id]))
	}
	e.vacant = e.vacant[:0]
}

// front returns the front entry — the (when, seq) minimum across the
// register heap, the event heap and the lanes — and the queue holding
// it, or srcNone when every queue is empty.
func (e *Engine) front() (entry, int) {
	if len(e.vacant) > 0 {
		e.dropVacant()
	}
	var best entry
	src := srcNone
	if len(e.rheap) > 0 {
		best, src = e.rheap[0], srcReg
	}
	if len(e.heap) > 0 {
		if x := e.heap[0]; src == srcNone || x.before(best) {
			best, src = x, srcHeap
		}
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

// fire dequeues the front entry x from queue src, advances the clock, and
// runs its callback. A register is disarmed and a slot recycled before
// the callback runs, so a callback observes its own event as fired. The
// fired register's entry stays in the register heap, vacant, for an Arm
// in the callback to take over; entries vacated during the event that no
// Arm took over leave the heap at the next front, before anything else
// can fire.
func (e *Engine) fire(x entry, src int) {
	if x.when < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = x.when
	e.fired++
	switch src {
	case srcReg:
		e.vacate(x.id)
		e.regs[x.id].fn()
		return
	case srcHeap:
		e.heapPop()
	case srcNow:
		e.nowq.pop()
	default:
		e.delays[src-srcDelay].pop()
	}
	e.live--
	s := &e.slots[x.id]
	fn, afn, arg := s.fn, s.afn, s.arg
	*s = slot{}
	e.free = append(e.free, x.id)
	if afn != nil {
		afn(arg)
		return
	}
	fn()
}

// NextAt reports the timestamp of the next event without firing it, or
// false when the queue is drained (or Stop was called). Multiplexers
// that interleave several engines — the cluster layer picking the
// globally earliest event across nodes — use this to decide whose Step
// runs next.
func (e *Engine) NextAt() (Time, bool) {
	if e.stopped {
		return 0, false
	}
	x, src := e.front()
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
	x, src := e.front()
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
		x, src := e.front()
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

// regUp moves rheap[i] up the register heap, keeping rpos current.
func (e *Engine) regUp(i int) {
	h := e.rheap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		e.rpos[h[i].id] = int32(i)
		i = p
	}
	h[i] = x
	e.rpos[x.id] = int32(i)
}

// regDown moves rheap[i] down the register heap, keeping rpos current.
func (e *Engine) regDown(i int) {
	h := e.rheap
	x := h[i]
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		e.rpos[h[i].id] = int32(i)
		i = c
	}
	h[i] = x
	e.rpos[x.id] = int32(i)
}

// regFix restores the register heap order around rheap[i] after its key
// changed in either direction.
func (e *Engine) regFix(i int) {
	if i > 0 && e.rheap[i].before(e.rheap[(i-1)/2]) {
		e.regUp(i)
	} else {
		e.regDown(i)
	}
}

// regRemove takes rheap[i] out of the register heap and disarms its
// register.
func (e *Engine) regRemove(i int) {
	h := e.rheap
	n := len(h) - 1
	e.rpos[h[i].id] = -1
	if i != n {
		h[i] = h[n]
	}
	e.rheap = h[:n]
	if i != n {
		e.regFix(i)
	}
}
