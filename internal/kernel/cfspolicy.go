package kernel

import (
	"fmt"

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

// program arms the core's hrtimer to the earliest pending event.
func (p *CFSPolicy) program(core int) {
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
func (p *CFSPolicy) tickDone(c *machine.Core, _ int) {
	p.program(c.ID())
	p.reschedule(c)
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
}

// TimesliceFor implements Policy: CFS's per-task share of sched-latency
// across the task's queue plus the running slot.
func (p *CFSPolicy) TimesliceFor(t *Task) sim.Duration {
	n := p.cfs[t.core].Len() + 1
	return sim.Duration(p.p.SchedLatencyNS / float64(n))
}
