package machine

import (
	"fmt"

	"khsim/internal/sim"
)

// Activity is a span of work a core executes: a slice of a benchmark, an
// interrupt handler body, a scheduler pass. Activities are preemptible
// unless marked otherwise; the core accounts partial progress exactly.
type Activity struct {
	// Label names the activity in traces.
	Label string
	// Remaining is the work left; the core decrements it as time passes.
	Remaining sim.Duration
	// OnComplete runs (in event context) when Remaining reaches zero.
	OnComplete func()
	// OnPreempt runs when an interrupt suspends the activity.
	OnPreempt func(at sim.Time)
	// OnResume runs when the activity continues after suspension; stolen
	// is the wall time lost since preemption (the selfish-detour signal).
	OnResume func(at sim.Time, stolen sim.Duration)
	// Uninterruptible delays IRQ delivery until the activity completes
	// (models IRQ-masked critical sections).
	Uninterruptible bool

	// bound and boundArg are ExecBound's completion: a callback bound
	// once by its owner and the per-call integer it is passed.
	bound    func(c *Core, arg int)
	boundArg int

	preemptedAt sim.Time
	// pooled marks an activity Core.Exec took from a core's free list;
	// released marks one that has completed and gone back to the list,
	// where the next Exec may re-initialise it at any time.
	pooled, released bool
}

// Dispatcher is the OS/hypervisor entry point for interrupts on a core.
// It runs with the interrupted activity already suspended and interrupts
// auto-masked; it must start handler work via Core.Exec (or finish
// immediately), and delivery costs are whatever it executes.
type Dispatcher func(c *Core)

// Core is one simulated CPU. It executes at most one Activity at a time,
// keeps a suspension stack for interrupt nesting, and exposes the hooks
// kernels need: an interrupt dispatcher, an idle callback, and explicit
// context-switch support (StealSuspended / SetNext).
type Core struct {
	id   int
	node *Node

	// eng and trace are cached off node at construction: the exec loop
	// (start/complete/suspend) touches them for every activity slice, and
	// the extra pointer hop shows up at simulation scale.
	eng   *sim.Engine
	trace *sim.Trace
	// done is the completion deadline of the running activity: armed when
	// an activity starts, disarmed when an interrupt suspends it. Its
	// callback completes c.cur, so starting an activity allocates nothing.
	done *sim.Register
	// free holds completed Exec activities for reuse, so kernel and guest
	// work slices allocate no Activity in steady state. It never holds
	// more than the peak number of Exec activities live at once.
	free []*Activity

	cur      *Activity
	curStart sim.Time
	stack    []*Activity
	next     *Activity

	irqMasked     bool
	pendingAssert bool
	dispatcher    Dispatcher
	onIdle        func(c *Core)
	// lazy is the owner's settle hook while the core is lazy: idle, with
	// the work its owner skips held as arithmetic (SetLazy). Touch calls
	// it once.
	lazy func(c *Core)

	busy     sim.Duration
	preempts uint64
	// tlbInvalidations counts TLB maintenance operations on the core.
	// The TLB itself is not modelled: the refill cost after a VM switch
	// is charged analytically by the hypervisor.
	tlbInvalidations uint64
}

// ID reports the core number.
func (c *Core) ID() int { return c.id }

// Node returns the core's node.
func (c *Core) Node() *Node { return c.node }

// InvalidateTLB counts one TLB maintenance operation on the core (a
// TLBI of all entries or of one VMID's). SnapshotMetrics publishes the
// count as tlb.invalidations{core=N}.
func (c *Core) InvalidateTLB() { c.tlbInvalidations++ }

// BusyTime reports accumulated execution time.
func (c *Core) BusyTime() sim.Duration {
	c.Touch()
	return c.busy
}

// AddBusy adds d of execution that the core's owner accounted in closed
// form: the slices a lazy core skipped (SetLazy).
func (c *Core) AddBusy(d sim.Duration) { c.busy += d }

// SetLazy makes the idle core lazy: its owner holds the work the core
// skips as arithmetic instead of running it. Touch calls settle once,
// before anything interrupts the core, starts work on it or reads its
// execution state, and settle must leave the core where the eager path
// would hold it at that instant. A lazy core has nothing to run, so it
// does not call its idle callback.
func (c *Core) SetLazy(settle func(c *Core)) { c.lazy = settle }

// Touch settles a lazy core (SetLazy); on any other core it does nothing.
func (c *Core) Touch() {
	if settle := c.lazy; settle != nil {
		c.lazy = nil
		settle(c)
	}
}

// Preemptions reports how many times activities were preempted.
func (c *Core) Preemptions() uint64 { return c.preempts }

// SetDispatcher installs the interrupt entry point (the running kernel).
func (c *Core) SetDispatcher(d Dispatcher) { c.dispatcher = d }

// SetOnIdle installs the callback invoked when the core runs out of work.
func (c *Core) SetOnIdle(fn func(c *Core)) { c.onIdle = fn }

// Idle reports whether the core has no current activity and no suspended
// work.
func (c *Core) Idle() bool {
	c.Touch()
	return c.cur == nil && len(c.stack) == 0 && c.next == nil
}

// Current returns the running activity, if any. An Exec activity goes
// back to the core's free list when it completes; do not keep it.
func (c *Core) Current() *Activity {
	c.Touch()
	return c.cur
}

// Depth reports the suspension-stack depth (interrupt nesting).
func (c *Core) Depth() int {
	c.Touch()
	return len(c.stack)
}

// Run begins executing a on an idle core (or from within a completion or
// dispatcher callback, where the core is momentarily without a current
// activity). Running over a live activity is a kernel bug and panics, as
// is running an Exec activity that has already completed (its storage
// belongs to the core's free list).
func (c *Core) Run(a *Activity) {
	c.checkLive(a)
	c.Touch()
	if c.cur != nil {
		panic(fmt.Sprintf("machine: core %d Run(%q) over live activity %q", c.id, a.Label, c.cur.Label))
	}
	if a.Remaining < 0 {
		panic(fmt.Sprintf("machine: activity %q with negative remaining", a.Label))
	}
	c.start(a)
}

// Exec runs d of work labelled label, then fn. The activity comes from the
// core's free list and returns to it once fn has returned, so callers
// never see it: everything an Exec slice does is in label, d and fn.
func (c *Core) Exec(label string, d sim.Duration, fn func()) {
	c.Run(c.mint(label, d, fn, false))
}

// ExecUninterruptible is Exec with IRQ delivery held off until completion.
func (c *Core) ExecUninterruptible(label string, d sim.Duration, fn func()) {
	c.Run(c.mint(label, d, fn, true))
}

// ExecBound is the allocation-free form of Exec and ExecUninterruptible
// for hot paths whose completion needs only the core and one integer (an
// IRQ number, an exit reason): fn is bound once by its owner and called
// as fn(c, arg) when the work is done. Both ride in the pooled activity,
// so a snapshot taken inside the slice records them like any other
// field; fn must read nothing else that a snapshot does not record.
func (c *Core) ExecBound(label string, d sim.Duration, uninterruptible bool, fn func(c *Core, arg int), arg int) {
	a := c.mint(label, d, nil, uninterruptible)
	a.bound, a.boundArg = fn, arg
	c.Run(a)
}

// ExecBoundSince is ExecBound for a slice that began at start, at or
// before now, and has held the core since: it completes at start+d, and
// its busy time and span run from start. A settle hook (SetLazy) uses it
// to put back the slice the eager path would be running.
func (c *Core) ExecBoundSince(start sim.Time, label string, d sim.Duration, uninterruptible bool, fn func(c *Core, arg int), arg int) {
	if c.cur != nil {
		panic(fmt.Sprintf("machine: core %d ExecBoundSince(%q) over live activity %q", c.id, label, c.cur.Label))
	}
	a := c.mint(label, d, nil, uninterruptible)
	a.bound, a.boundArg = fn, arg
	c.cur = a
	c.curStart = start
	c.done.Arm(start.Add(d))
}

// mint takes an activity from the free list, or allocates one when the
// list is empty, and fully re-initialises it: a list entry may hold a
// previous slice's fields, or after a Fork a divergent timeline's.
func (c *Core) mint(label string, d sim.Duration, fn func(), uninterruptible bool) *Activity {
	var a *Activity
	if n := len(c.free); n > 0 {
		a = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		a = new(Activity)
	}
	// Field by field rather than one composite-literal assignment, which
	// compiles to a whole-struct copy on this hot path.
	a.Label = label
	a.Remaining = d
	a.OnComplete = fn
	a.OnPreempt = nil
	a.OnResume = nil
	a.Uninterruptible = uninterruptible
	a.bound = nil
	a.boundArg = 0
	a.preemptedAt = 0
	a.pooled = true
	a.released = false
	return a
}

// release returns a completed Exec activity to the free list. The label
// stays for diagnostics; the callbacks are dropped so the list pins
// nothing. Field by field, like mint: a composite literal would zero the
// whole struct.
func (c *Core) release(a *Activity) {
	a.Remaining = 0
	a.OnComplete = nil
	a.OnPreempt = nil
	a.OnResume = nil
	a.Uninterruptible = false
	a.bound = nil
	a.boundArg = 0
	a.preemptedAt = 0
	a.released = true
	c.free = append(c.free, a)
}

// checkLive panics if a is an Exec activity that already completed.
func (c *Core) checkLive(a *Activity) {
	if a.released {
		panic(fmt.Sprintf("machine: core %d reuse of completed Exec activity %q", c.id, a.Label))
	}
}

func (c *Core) start(a *Activity) {
	now := c.eng.Now()
	c.cur = a
	c.curStart = now
	c.done.Arm(now.Add(a.Remaining))
}

// completeCur is the done register's callback: the running activity has
// reached its end.
func (c *Core) completeCur() { c.complete(c.cur) }

func (c *Core) complete(a *Activity) {
	c.busy += a.Remaining
	// Each contiguous execution slice is one typed trace span; slices on
	// one core never overlap, so the Perfetto export is well-nested by
	// construction.
	c.trace.Span(c.curStart, a.Remaining, c.id, "exec", a.Label)
	a.Remaining = 0
	c.cur = nil
	if a.OnComplete != nil {
		a.OnComplete()
	} else if a.bound != nil {
		a.bound(c, a.boundArg)
	}
	if a.pooled {
		c.release(a)
	}
	c.settle()
}

// settle decides what the core does after a completion or dispatcher
// callback returns: unmask interrupts (eret semantics — each completed
// activity ends its exception frame), deliver anything held, then run the
// switched-to activity, resume suspended work, or go idle.
func (c *Core) settle() {
	// eret: completing an activity re-enables interrupts, even when the
	// completion callback context-switched to new work.
	c.irqMasked = false
	if c.pendingAssert && (c.cur == nil || !c.cur.Uninterruptible) {
		c.pendingAssert = false
		c.deliver()
		if c.irqMasked {
			return
		}
	}
	if c.cur != nil {
		return // callback already started something
	}
	if c.next != nil {
		a := c.next
		c.next = nil
		c.start(a)
		return
	}
	if len(c.stack) > 0 {
		a := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		now := c.eng.Now()
		stolen := now.Sub(a.preemptedAt)
		if a.OnResume != nil {
			a.OnResume(now, stolen)
		}
		c.start(a)
		return
	}
	if c.onIdle != nil && c.lazy == nil {
		c.onIdle(c)
	}
}

// AssertIRQ is the GIC's delivery signal. Delivery is immediate unless
// interrupts are masked or the current activity is uninterruptible, in
// which case it is held until the mask drops.
func (c *Core) AssertIRQ() {
	if c.irqMasked || (c.cur != nil && c.cur.Uninterruptible) {
		c.pendingAssert = true
		return
	}
	c.deliver()
}

func (c *Core) deliver() {
	if c.lazy != nil {
		// A lazy core is idle and unmasked, so each interrupt reaches it
		// here; settled, it may be inside a slice that holds the IRQ.
		c.Touch()
		if c.irqMasked || (c.cur != nil && c.cur.Uninterruptible) {
			c.pendingAssert = true
			return
		}
	}
	if c.dispatcher == nil {
		c.pendingAssert = true
		return
	}
	if c.cur != nil {
		c.suspendCurrent()
	}
	c.irqMasked = true // hardware masks IRQs on exception entry
	c.dispatcher(c)
	c.settle()
}

func (c *Core) suspendCurrent() {
	a := c.cur
	now := c.eng.Now()
	elapsed := now.Sub(c.curStart)
	c.done.Disarm()
	a.Remaining -= elapsed
	if a.Remaining < 0 {
		a.Remaining = 0
	}
	c.busy += elapsed
	c.trace.Span(c.curStart, elapsed, c.id, "exec", a.Label)
	a.preemptedAt = now
	c.preempts++
	if a.OnPreempt != nil {
		a.OnPreempt(now)
	}
	c.stack = append(c.stack, a)
	c.cur = nil
}

// StealSuspended removes and returns the bottom-most suspended activity —
// the workload that was running before the interrupt chain — so a
// scheduler can migrate or park it. Returns nil if nothing is suspended.
func (c *Core) StealSuspended() *Activity {
	if len(c.stack) == 0 {
		return nil
	}
	a := c.stack[0]
	c.stack = c.stack[1:]
	return a
}

// ResumeStolen runs a previously stolen activity on this core, firing its
// OnResume with the stolen time. The core must be idle at that slot (same
// rules as Run).
func (c *Core) ResumeStolen(a *Activity) {
	c.checkLive(a)
	now := c.eng.Now()
	stolen := now.Sub(a.preemptedAt)
	if a.OnResume != nil {
		a.OnResume(now, stolen)
	}
	c.Run(a)
}

// StackLabels reports the labels of suspended activities, bottom first
// (diagnostics).
func (c *Core) StackLabels() []string {
	var out []string
	for _, a := range c.stack {
		out = append(out, a.Label)
	}
	return out
}

// StealAllSuspended removes the entire suspension stack, bottom first —
// the full execution context of whatever was interrupted, including
// nested handler frames — appends it to dst and returns the result. A
// hypervisor switching a guest off a core must take all of it (a partial
// steal would leak guest frames into the next context). The caller owns
// dst, so a context switched out again and again can reuse one buffer,
// and the core keeps its own stack's storage for the next interrupt.
func (c *Core) StealAllSuspended(dst []*Activity) []*Activity {
	dst = append(dst, c.stack...)
	clear(c.stack)
	c.stack = c.stack[:0]
	return dst
}

// RestoreStack reinstates frames captured by StealAllSuspended: the inner
// frames return to the suspension stack and the top frame resumes now
// (its OnResume fires immediately; inner frames fire theirs when
// execution unwinds back to them).
func (c *Core) RestoreStack(frames []*Activity) {
	if len(frames) == 0 {
		return
	}
	for _, a := range frames {
		c.checkLive(a)
	}
	c.stack = append(c.stack, frames[:len(frames)-1]...)
	c.ResumeStolen(frames[len(frames)-1])
}

// SetNext arranges for a to run when the current handler chain finishes,
// instead of resuming suspended work. The scheduler must first
// StealSuspended anything it wants preserved; switching away while work
// is still suspended is a kernel bug and panics.
func (c *Core) SetNext(a *Activity) {
	c.checkLive(a)
	if len(c.stack) > 0 {
		panic(fmt.Sprintf("machine: core %d SetNext(%q) with %d suspended activities", c.id, a.Label, len(c.stack)))
	}
	if c.next != nil {
		panic(fmt.Sprintf("machine: core %d SetNext(%q) over pending %q", c.id, a.Label, c.next.Label))
	}
	c.next = a
}

// CallHandler suspends the current activity (if any) and invokes fn as if
// it were an interrupt dispatcher: fn may Exec handler work, and when the
// handler chain completes the suspended work resumes. Software-initiated
// preemption (virtual interrupt injection) uses this to reuse the
// hardware delivery path.
func (c *Core) CallHandler(fn func(c *Core)) {
	c.Touch()
	if c.cur != nil {
		c.suspendCurrent()
	}
	c.irqMasked = true
	fn(c)
	c.settle()
}

// IRQMasked reports the core's interrupt mask state.
func (c *Core) IRQMasked() bool { return c.irqMasked }

// SetIRQMasked changes the mask explicitly (PSTATE.I). Unmasking delivers
// any held interrupt immediately.
func (c *Core) SetIRQMasked(m bool) {
	c.irqMasked = m
	if !m && c.pendingAssert {
		c.pendingAssert = false
		c.deliver()
	}
}
