package sim

import (
	"fmt"
	"math"
)

// entry is one pending firing as the heap sees it: its (when, seq) key
// and the id of its register. It holds no pointer, so moving entries
// through the heap needs no write barrier and comparing two never
// dereferences anything.
type entry struct {
	when Time
	seq  uint64 // tie-break: FIFO among firings at the same instant
	id   uint32
}

// before orders entries by (when, seq): time first, FIFO at one instant.
func (a entry) before(b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all simulated components run inside event callbacks
// on the goroutine that calls Run or Step.
//
// Every pending firing is a Register's, and the engine keeps one queue:
// a binary min-heap of pointer-free entries ordered by (when, seq), each
// register's position in it kept in a dense table so arming, re-arming
// and disarming are O(log n). A deadline that its owner moves or drops
// is a register the owner created. A scheduled event, which always
// fires, is a pooled register: ScheduleNamed, ScheduleArg and AfterNamed
// take one from the free list, set its callback and arm it, and the
// engine frees it again just before running that callback.
type Engine struct {
	now Time
	seq uint64
	// order is where the engine stands within the instant now: the seq of
	// the firing that runs or ran last, or math.MaxUint64 once Run has run
	// every firing due at now (see Order).
	order uint64

	regs []*Register // by register id
	heap []entry     // binary min-heap of armed registers by (when, seq)
	pos  []int32     // each register's index in heap, -1 when it has none
	free []uint32    // ids of the pooled event registers not in use
	// vacant lists the registers that fired or were disarmed since the
	// last front, in no particular order; vac marks them by id. Each
	// keeps its heap entry, disarmed, and the next Arm of a register
	// with no entry takes one over in place (see Register.Arm). front
	// and Snapshot remove the entries nobody took before they read the
	// heap, and Pending does not count them.
	vacant []uint32
	vac    []bool

	rng     *RNG
	stopped bool

	// fired counts events executed; useful as a progress/complexity metric.
	fired uint64
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

// Seq reports the seq the next Arm draws: every firing armed before the
// call holds a smaller one, every firing armed after it a larger one.
func (e *Engine) Seq() uint64 { return e.seq }

// Order reports where the engine stands within the instant Now in the
// (when, seq) order: the seq of the firing whose callback is running, or
// of the last one fired, or math.MaxUint64 once Run has returned with
// every firing due at Now fired. A firing at Now has run if and only if
// its seq is at most Order.
func (e *Engine) Order() uint64 { return e.order }

// Pending reports how many events are waiting to fire: scheduled events
// and armed registers.
func (e *Engine) Pending() int { return len(e.heap) - len(e.vacant) }

// ScheduleNamed enqueues fn to run at the absolute time at. Scheduling in
// the past (before Now) is a logic error and panics with a message naming
// the event.
func (e *Engine) ScheduleNamed(at Time, name string, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	r := e.event(at, name)
	r.fn = fn
	r.Arm(at)
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
	r := e.event(at, name)
	r.afn, r.arg = fn, arg
	r.Arm(at)
}

// event returns a pooled event register for a firing at at: the last one
// freed, or a new one when none is free.
func (e *Engine) event(at Time, name string) *Register {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", name, at, e.now))
	}
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return e.regs[id]
	}
	r := e.newRegister("event", nil)
	r.pooled = true
	return r
}

// AfterNamed enqueues fn to run d from now. Negative d panics.
func (e *Engine) AfterNamed(d Duration, name string, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.ScheduleNamed(e.now.Add(d), name, fn)
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
	name string
	fn   func()
	// afn and arg are the callback of an event scheduled with
	// ScheduleArg, exclusive with fn.
	afn func(any)
	arg any
	id  uint32
	// pooled marks an event register, which the engine lends to one
	// scheduled event at a time.
	pooled bool
}

// NewRegister returns a disarmed register that runs fn whenever it fires.
func (e *Engine) NewRegister(name string, fn func()) *Register {
	if fn == nil {
		panic("sim: nil register callback")
	}
	return e.newRegister(name, fn)
}

// newRegister adds a disarmed register; an event register's callback is
// set each time it is taken, so it starts with none.
func (e *Engine) newRegister(name string, fn func()) *Register {
	r := &Register{eng: e, id: uint32(len(e.regs)), name: name, fn: fn}
	e.regs = append(e.regs, r)
	e.pos = append(e.pos, -1)
	e.vac = append(e.vac, false)
	return r
}

// Arm sets the register to fire at the absolute time at, replacing its
// pending firing if it has one. Arming in the past panics. The new
// firing overwrites an entry already in the heap and moves it with one
// regFix where it can: the register's own entry, or else one that fired
// or was disarmed during the current event. Only with neither is an
// entry added.
func (r *Register) Arm(at Time) {
	e := r.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: arming register %q at %v before now %v", r.name, at, e.now))
	}
	x := entry{when: at, seq: e.seq, id: r.id}
	e.seq++
	p := e.pos[r.id]
	switch {
	case p >= 0 && e.vac[r.id]:
		e.unvacate(r.id)
	case p < 0 && len(e.vacant) > 0:
		v := e.vacant[len(e.vacant)-1]
		e.vacant = e.vacant[:len(e.vacant)-1]
		e.vac[v] = false
		p, e.pos[v] = e.pos[v], -1
	}
	if p >= 0 {
		e.heap[p] = x
		e.regFix(int(p))
	} else {
		e.heap = append(e.heap, x)
		e.regUp(len(e.heap) - 1)
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
func (r *Register) Armed() bool { return r.eng.pos[r.id] >= 0 && !r.eng.vac[r.id] }

// Seq reports the seq the pending firing drew when it was armed, or 0
// when disarmed.
func (r *Register) Seq() uint64 {
	if r.Armed() {
		return r.eng.heap[r.eng.pos[r.id]].seq
	}
	return 0
}

// When reports the time of the pending firing, or 0 when disarmed.
func (r *Register) When() Time {
	if r.Armed() {
		return r.eng.heap[r.eng.pos[r.id]].when
	}
	return 0
}

// vacate disarms register id but leaves its entry in the heap for a
// later Arm in the same event to take over.
func (e *Engine) vacate(id uint32) {
	e.vac[id] = true
	e.vacant = append(e.vacant, id)
}

// unvacate takes register id off the vacant list, whose order does not
// matter; its entry stays.
func (e *Engine) unvacate(id uint32) {
	e.vac[id] = false
	last := len(e.vacant) - 1
	for i, v := range e.vacant {
		if v == id {
			e.vacant[i] = e.vacant[last]
			e.vacant = e.vacant[:last]
			return
		}
	}
}

// dropVacant removes the entries no Arm took over from the heap.
func (e *Engine) dropVacant() {
	for _, id := range e.vacant {
		e.vac[id] = false
		e.regRemove(int(e.pos[id]))
	}
	e.vacant = e.vacant[:0]
}

// front returns the front entry, the heap's (when, seq) minimum once the
// vacant entries are gone, or false when nothing is armed.
func (e *Engine) front() (entry, bool) {
	if len(e.vacant) > 0 {
		e.dropVacant()
	}
	if len(e.heap) == 0 {
		return entry{}, false
	}
	return e.heap[0], true
}

// fire advances the clock to the front entry x and runs its register's
// callback. The register is disarmed first, and a pooled one freed, so a
// callback observes its own event as fired and may reuse the register.
// Its entry stays in the heap, vacant, for an Arm in the callback to
// take over; entries vacated during the event that no Arm took over
// leave the heap at the next front, before anything else can fire.
func (e *Engine) fire(x entry) {
	if x.when < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = x.when
	e.order = x.seq
	e.fired++
	e.vacate(x.id)
	r := e.regs[x.id]
	if !r.pooled {
		r.fn()
		return
	}
	fn, afn, arg := r.fn, r.afn, r.arg
	r.fn, r.afn, r.arg = nil, nil, nil
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
	x, ok := e.front()
	return x.when, ok
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when the queue is empty or Stop was called.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	x, ok := e.front()
	if ok {
		e.fire(x)
	}
	return ok
}

// Run fires events until the queue is empty, Stop is called, or the next
// event lies strictly after until; the clock is then advanced to until if
// it has not passed it. It returns the number of events fired.
func (e *Engine) Run(until Time) uint64 {
	start := e.fired
	for !e.stopped {
		x, ok := e.front()
		if !ok || x.when > until {
			break
		}
		e.fire(x)
	}
	if !e.stopped {
		e.now = max(e.now, until)
		e.order = math.MaxUint64
	}
	return e.fired - start
}

// RunAll fires events until the queue drains or Stop is called.
func (e *Engine) RunAll() uint64 {
	start := e.fired
	for e.Step() {
	}
	if !e.stopped {
		e.order = math.MaxUint64
	}
	return e.fired - start
}

// Stop halts Run/RunAll/Step after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// regUp moves heap[i] up the heap, keeping pos current.
func (e *Engine) regUp(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		e.pos[h[i].id] = int32(i)
		i = p
	}
	h[i] = x
	e.pos[x.id] = int32(i)
}

// regDown moves heap[i] down the heap, keeping pos current.
func (e *Engine) regDown(i int) {
	h := e.heap
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
		e.pos[h[i].id] = int32(i)
		i = c
	}
	h[i] = x
	e.pos[x.id] = int32(i)
}

// regFix restores the heap order around heap[i] after its key changed in
// either direction.
func (e *Engine) regFix(i int) {
	if i > 0 && e.heap[i].before(e.heap[(i-1)/2]) {
		e.regUp(i)
	} else {
		e.regDown(i)
	}
}

// regRemove takes heap[i] out of the heap and disarms its register.
func (e *Engine) regRemove(i int) {
	h := e.heap
	n := len(h) - 1
	e.pos[h[i].id] = -1
	if i != n {
		h[i] = h[n]
	}
	e.heap = h[:n]
	if i != n {
		e.regFix(i)
	}
}
