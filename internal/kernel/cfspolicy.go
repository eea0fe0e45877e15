package kernel

import (
	"fmt"
	"math"
	"sync/atomic"

	"khsim/internal/gic"
	"khsim/internal/machine"
	"khsim/internal/sim"
	"khsim/internal/timer"
)

// KthreadSpec describes one background kernel-thread population — the
// "background tasks that need to periodically run" and "deferred work
// that is randomly assigned to a CPU core" of §III-a.
type KthreadSpec struct {
	Name string
	// PerCore creates one bound instance per core (ksoftirqd); otherwise
	// a single unbound instance wakes on a random core each time.
	PerCore bool
	// MeanInterval is the exponential mean between activations.
	MeanInterval sim.Duration
	// MinWork/MaxWork bound the uniform work per activation.
	MinWork, MaxWork sim.Duration
}

// CFSParams are the tunables of the CFS policy.
type CFSParams struct {
	// TickHz is CONFIG_HZ.
	TickHz sim.Hertz
	// TickCost is the tick path: jiffies update, timer wheel, CFS
	// update_curr, RCU bookkeeping.
	TickCost sim.Duration
	// WakeCost is charged per kthread wakeup (hrtimer dispatch + enqueue).
	WakeCost sim.Duration
	// SchedLatencyNS and WakeupGranularityNS are the CFS knobs.
	SchedLatencyNS      float64
	WakeupGranularityNS float64
	// Kthreads is the background-noise population.
	Kthreads []KthreadSpec
}

// wake is a pending hrtimer event: task t becomes runnable at 'at'.
type wake struct {
	at sim.Time
	t  *Task
}

// idleRun is a lazy core's account of the ticks it skips (DESIGN.md
// §9.9): one every period from first on, each idle, up to the phys
// timer's deadline until.
type idleRun struct {
	first sim.Time
	// until is the phys timer's deadline, the first instant the eager
	// path does something other than an idle tick; no tick at or after it
	// is skipped. armed is false when no wake is pending on the core: the
	// timer is disarmed and the run has no end.
	until sim.Time
	armed bool
	// armSeq is the seq the eager path's timer arm for first drew, and
	// seq the engine's at the decision: a firing with a smaller one was
	// armed before the core went lazy.
	armSeq, seq uint64
}

// idleTies counts the touches of lazy cores that landed exactly on the
// instant of a skipped event, and idleTiesRuled those among them whose
// order the tie rule decided rather than the seqs (DESIGN.md §9.9). The
// simulation never reads them.
var idleTies, idleTiesRuled atomic.Uint64

// IdleTies reports how many touches of lazy cores, process-wide, landed
// exactly on a skipped tick, trap end or tick end, and how many of those
// the tie rule ordered.
func IdleTies() (ties, ruled uint64) { return idleTies.Load(), idleTiesRuled.Load() }

// CFSPolicy is the Linux scheduling policy: per-core CFS runqueues driven
// by a high-rate tick, plus background kthreads that wake on their own
// hrtimers — the noise sources §III-a blames for Linux's overhead.
type CFSPolicy struct {
	p CFSParams

	k      *Kernel
	cfs    []*CFS
	tickAt []sim.Time
	wakes  [][]wake
	rng    *sim.RNG
	// idle holds each lazy core's run of skipped ticks; it is meaningful
	// only while the core is lazy.
	idle []idleRun
	// woken holds, per core, the kthreads that the tick paths in flight
	// on that core found due. A tick's batch starts at the index its
	// activity carries and runs to the end: ticks nest on one core only
	// by preempting each other, so the innermost completes first and
	// takes its batch off the end.
	woken [][]*Task

	// The tick and context-switch labels are built once at Attach (each
	// kthread's activation label lives on its task).
	labelTick, labelCtxsw string
	// The tick, wake, context-switch and kthread completions are bound at
	// Attach and ride in pooled activities with their core and one
	// integer, so the tick path builds no closure.
	tickDoneFn, wakeDoneFn, ctxswFn, kthreadDoneFn func(c *machine.Core, arg int)
	// settleFn is the lazy cores' settle hook, bound once.
	settleFn func(c *machine.Core)
}

// NewCFSPolicy builds the policy from its tunables.
func NewCFSPolicy(p CFSParams) *CFSPolicy { return &CFSPolicy{p: p} }

// Attach implements Policy: split the kernel's noise RNG stream and build
// the per-core runqueues.
func (p *CFSPolicy) Attach(k *Kernel) {
	p.k = k
	p.labelTick = k.cfg.Label + ".tick"
	p.labelCtxsw = k.cfg.Label + ".ctxsw"
	p.tickDoneFn = p.tickDone
	p.wakeDoneFn = p.wakeDone
	p.ctxswFn = func(c *machine.Core, _ int) { k.schedule(c) }
	p.kthreadDoneFn = p.kthreadDone
	p.settleFn = p.settle
	p.idle = make([]idleRun, len(k.node.Cores))
	p.tickAt = make([]sim.Time, len(k.node.Cores))
	p.wakes = make([][]wake, len(k.node.Cores))
	p.woken = make([][]*Task, len(k.node.Cores))
	p.rng = k.node.Engine.RNG().Split(0x11b)
	for range k.node.Cores {
		p.cfs = append(p.cfs, NewCFS(p.p.SchedLatencyNS))
	}
}

// Boot implements Policy: create the kthread population (one bound
// instance per core for PerCore specs, one unbound instance otherwise),
// arm their first activations, then the staggered scheduler tick.
func (p *CFSPolicy) Boot(k *Kernel) {
	now := k.node.Now()
	period := p.p.TickHz.Period()
	for i := range p.p.Kthreads {
		spec := &p.p.Kthreads[i]
		if spec.PerCore {
			for core := range k.node.Cores {
				t := k.AddKthread(fmt.Sprintf("%s/%d", spec.Name, core), core, spec)
				t.ent.Name = spec.Name
				p.scheduleWake(t)
			}
		} else {
			t := k.AddKthread(spec.Name, 0, spec)
			p.scheduleWake(t)
		}
	}
	for core := range k.node.Cores {
		offset := sim.Duration(uint64(period) * uint64(core) / uint64(len(k.node.Cores)))
		p.tickAt[core] = now.Add(period + offset)
		p.program(core)
	}
}

// scheduleWake arms the next activation of a kthread: an exponential
// interval, on its bound core or a random core for unbound threads
// ("deferred work that is randomly assigned to a CPU core", §III-a).
func (p *CFSPolicy) scheduleWake(t *Task) {
	core := t.core
	if !t.spec.PerCore {
		core = p.rng.Intn(len(p.k.node.Cores))
		t.core = core
	}
	at := p.k.node.Now().Add(p.rng.ExpDuration(t.spec.MeanInterval))
	p.wakes[core] = append(p.wakes[core], wake{at: at, t: t})
	if p.k.started {
		p.program(core)
	}
}

// program arms the core's hrtimer to the earliest pending event, after
// settling the core if it is lazy.
func (p *CFSPolicy) program(core int) {
	p.k.node.Cores[core].Touch()
	deadline := p.tickAt[core]
	for _, w := range p.wakes[core] {
		if w.at < deadline {
			deadline = w.at
		}
	}
	p.k.node.Timers.Core(core).Arm(timer.Phys, deadline)
}

// OnTick implements Policy: dispatch the hrtimer — scheduler tick and/or
// kthread wakeups, whichever came due.
func (p *CFSPolicy) OnTick(k *Kernel, c *machine.Core) {
	id := c.ID()
	now := k.node.Now()
	var cost sim.Duration
	tickDue := now >= p.tickAt[id]
	if tickDue {
		cost += p.p.TickCost
		k.mTicks.Inc()
		p.tickAt[id] = p.tickAt[id].Add(p.p.TickHz.Period())
		// Charge the running entity one tick of vruntime.
		if k.current[id] != nil {
			p.cfs[id].Account(p.p.TickHz.Period().Nanos())
		}
	}
	// Move the due wakes to this tick's batch, keeping the rest in place
	// (the snapshot copies the slice, so none shares its storage).
	start := len(p.woken[id])
	ws := p.wakes[id]
	n := 0
	for _, w := range ws {
		if w.at <= now {
			cost += p.p.WakeCost
			p.woken[id] = append(p.woken[id], w.t)
		} else {
			ws[n] = w
			n++
		}
	}
	clear(ws[n:])
	p.wakes[id] = ws[:n]
	if cost == 0 {
		cost = p.p.WakeCost / 2 // spurious hrtimer reprogram
	}
	if len(p.woken[id]) == start {
		c.ExecBound(p.labelTick, cost, false, p.tickDoneFn, 0)
		return
	}
	c.ExecBound(p.labelTick, cost, false, p.wakeDoneFn, start)
}

// wakeDone ends a tick that found kthreads due: the batch from index
// start of the core's woken list becomes runnable, then the tick ends.
func (p *CFSPolicy) wakeDone(c *machine.Core, start int) {
	k := p.k
	id := c.ID()
	batch := p.woken[id][start:]
	for _, t := range batch {
		k.mWakeups.Inc()
		t.activations++
		t.state = TaskReady
		p.cfs[id].Enqueue(&t.ent)
	}
	clear(batch)
	p.woken[id] = p.woken[id][:start]
	p.tickDone(c, 0)
}

// tickDone ends the tick path: rearm the hrtimer and apply preemption.
// A core left with nothing to run goes lazy instead of rearming (sleep):
// the lazy arm stands where the eager one would.
func (p *CFSPolicy) tickDone(c *machine.Core, _ int) {
	lazy := p.sleep(c, p.k.node.Engine.Seq())
	if !lazy {
		p.program(c.ID())
	}
	p.reschedule(c)
	if lazy {
		c.SetLazy(p.settleFn)
	}
}

// sleep decides, as a tick or a kthread activation ends, whether the core
// goes lazy (DESIGN.md §9.9): it runs under a hypervisor with spans off, it has no
// current task, no suspended frame, an empty queue and no woken batch,
// and its next tick is idle. If so, it arms the phys timer for the first
// instant the eager path does something other than an idle tick — the
// earliest kthread wake, moved to the end of a skipped tick's slice if it
// falls inside one — or disarms it when no wake is pending, records the
// run and reports true. armSeq is the seq of the eager path's timer arm
// for the next tick. The caller makes the core lazy once nothing is left
// to schedule.
func (p *CFSPolicy) sleep(c *machine.Core, armSeq uint64) bool {
	k := p.k
	id := c.ID()
	if k.h == nil || k.current[id] != nil || !c.Idle() || p.cfs[id].Len() != 0 ||
		len(p.woken[id]) != 0 || k.node.Trace.SpansEnabled() {
		return false
	}
	eng := k.node.Engine
	first := p.tickAt[id]
	if first <= eng.Now() {
		return false // a late tick: the eager path fires it now
	}
	r := idleRun{first: first, armSeq: armSeq, seq: eng.Seq()}
	if ws := p.wakes[id]; len(ws) > 0 {
		w := ws[0].at
		for _, x := range ws[1:] {
			w = min(w, x.at)
		}
		period, hyp := p.p.TickHz.Period(), k.node.Costs.HypTrap
		// Tick n (from 1) is idle while its OnTick, hyp after it fires,
		// finds no wake due.
		if w <= first.Add(hyp) {
			return false
		}
		n := (w.Sub(first.Add(hyp)) + period - 1) / period
		last := first.Add((n - 1) * period)
		r.until = min(w, last.Add(period))
		if end := last.Add(hyp + p.p.TickCost); w < end {
			r.until = end // the last idle tick's tickDone finds the wake overdue
		}
		r.armed = true
		k.node.Timers.Core(id).Arm(timer.Phys, r.until)
	} else {
		k.node.Timers.Core(id).CancelChannel(timer.Phys)
	}
	p.idle[id] = r
	return true
}

// settle is a lazy core's touch hook (DESIGN.md §9.9). The skipped ticks
// whose events ran before the touch add their counts and busy time, and
// the core is left where the eager path holds it: inside the el2.trap or
// linux.tick slice of the tick the touch landed in, or between ticks with
// the phys timer armed as program arms it.
func (p *CFSPolicy) settle(c *machine.Core) {
	k := p.k
	id := c.ID()
	r := &p.idle[id]
	eng := k.node.Engine
	now, order := eng.Now(), eng.Order()
	period, hyp, cost := p.p.TickHz.Period(), k.node.Costs.HypTrap, p.p.TickCost
	// before reports whether a skipped event at instant at ran before the
	// touch. At a tie the seqs decide where they can: a touch between
	// events comes after everything due, the first tick's timer holds the
	// eager arm's seq, and a firing armed before the core went lazy
	// precedes every later skipped event, whose eager arms come after.
	// The tie rule orders the rest: the skipped event first.
	before := func(at sim.Time) bool {
		if at != now {
			return at < now
		}
		idleTies.Add(1)
		switch {
		case order == math.MaxUint64:
			return true
		case at == r.first:
			return order >= r.armSeq
		case order < r.seq:
			return false
		}
		if !r.armed || order != r.seq { // not the lazy timer's own expiry
			idleTiesRuled.Add(1)
		}
		return true
	}
	// n is the number of skipped ticks whose timer fired before the touch.
	var n int64
	if now >= r.first {
		n = int64(now.Sub(r.first)/period) + 1
	}
	if r.armed {
		n = min(n, int64((r.until.Sub(r.first)+period-1)/period))
	}
	if n > 0 && r.first.Add(sim.Duration(n-1)*period) == now && !before(now) {
		n--
	}
	// ticks counts their OnTicks and done their ended slices: a touch
	// inside tick n's trap or tick slice finds that slice running.
	ticks, done := n, n
	var start sim.Time
	if n > 0 {
		start = r.first.Add(sim.Duration(n-1) * period)
		switch {
		case !before(start.Add(hyp)):
			ticks, done = n-1, n-1
		case !before(start.Add(hyp + cost)):
			done = n - 1
		}
	}
	tm := k.node.Timers.Core(id)
	tm.AddFired(timer.Phys, uint64(n))
	k.node.GIC.AddDelivered(uint64(n))
	k.h.AddTraps(id, uint64(n))
	k.mTicks.Add(uint64(ticks))
	c.AddBusy(sim.Duration(ticks)*hyp + sim.Duration(done)*cost)
	p.tickAt[id] = r.first.Add(sim.Duration(ticks) * period)
	switch {
	case ticks < n: // in tick n's trap, the timer fired at its start
		tm.CancelChannel(timer.Phys)
		k.h.TrapSince(c, start, gic.IRQPhysTimer)
	case done < n: // in tick n's tick slice; tickDone rearms the timer
		tm.CancelChannel(timer.Phys)
		c.ExecBoundSince(start.Add(hyp), p.labelTick, cost, false, p.tickDoneFn, 0)
	case r.armed && !tm.Armed(timer.Phys):
		// The touch is the timer's own expiry at until.
	default:
		p.program(id)
	}
}

// OnTickNative implements Policy. The simulation never runs Linux bare
// metal, but the policy still behaves sensibly: the delivery cost is
// simply absorbed into the dispatch (hrtimer costs dominate it anyway).
func (p *CFSPolicy) OnTickNative(k *Kernel, c *machine.Core, entry sim.Duration) {
	p.OnTick(k, c)
}

// reschedule applies CFS preemption after timer work.
func (p *CFSPolicy) reschedule(c *machine.Core) {
	k := p.k
	id := c.ID()
	cur := k.current[id]
	if cur == nil {
		k.schedule(c)
		return
	}
	preempt := p.cfs[id].ShouldPreempt(p.p.WakeupGranularityNS)
	canSwitch := (cur.vc != nil && c.Depth() == 0) || (cur.vc == nil && c.Depth() == 1)
	if preempt && canSwitch {
		k.deschedule(c, cur)
		c.ExecBound(p.labelCtxsw, k.cfg.CtxSwitch, false, p.ctxswFn, 0)
		return
	}
	k.resume(c)
}

// Enqueue implements Policy.
func (p *CFSPolicy) Enqueue(t *Task) { p.cfs[t.core].Enqueue(&t.ent) }

// PickNext implements Policy: the leftmost entity's owning task.
func (p *CFSPolicy) PickNext(core int) *Task {
	e := p.cfs[core].PickNext()
	if e == nil {
		return nil
	}
	return e.owner
}

// Unpick implements Policy: clear the stale pick's running slot.
func (p *CFSPolicy) Unpick(core int, t *Task) { p.cfs[core].Dequeue() }

// Requeue implements Policy: fairness round for the running entity.
func (p *CFSPolicy) Requeue(core int, t *Task) { p.cfs[core].Requeue() }

// Block implements Policy: the running entity leaves the CPU unqueued.
func (p *CFSPolicy) Block(core int, t *Task) { p.cfs[core].Dequeue() }

// OnWake implements Policy: enqueue unless already runnable.
func (p *CFSPolicy) OnWake(t *Task) {
	if !t.ent.OnRunqueue() {
		p.cfs[t.core].Enqueue(&t.ent)
	}
}

// Remove implements Policy: drop the dead task's queued entity.
func (p *CFSPolicy) Remove(t *Task) { p.cfs[t.core].Remove(&t.ent) }

// RunKthread implements Policy: one uniform-length activation, then block
// and rearm the next exponential wake.
func (p *CFSPolicy) RunKthread(k *Kernel, c *machine.Core, t *Task) {
	work := p.rng.UniformDuration(t.spec.MinWork, t.spec.MaxWork)
	c.ExecBound(t.label, work, false, p.kthreadDoneFn, t.index)
}

// kthreadDone ends the activation of the kthread at index i of the
// kernel's tasks.
func (p *CFSPolicy) kthreadDone(c *machine.Core, i int) {
	k := p.k
	t := k.tasks[i]
	k.blockCurrent(c, t)
	p.scheduleWake(t)
	k.schedule(c)
	if p.sleep(c, k.node.Timers.Core(c.ID()).ArmedSeq(timer.Phys)) {
		c.SetLazy(p.settleFn)
	}
}

// TimesliceFor implements Policy: CFS's per-task share of sched-latency
// across the task's queue plus the running slot.
func (p *CFSPolicy) TimesliceFor(t *Task) sim.Duration {
	n := p.cfs[t.core].Len() + 1
	return sim.Duration(p.p.SchedLatencyNS / float64(n))
}
