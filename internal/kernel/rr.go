package kernel

import (
	"khsim/internal/machine"
	"khsim/internal/sim"
	"khsim/internal/timer"
)

// runqueue is a per-core FIFO round-robin queue, Kitten-style: no
// priorities, no load balancing, fully deterministic.
type runqueue struct {
	tasks []*Task
}

func (q *runqueue) push(t *Task) { q.tasks = append(q.tasks, t) }

func (q *runqueue) pop() *Task {
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[0]
	// Shift rather than reslice, so the queue keeps its front capacity
	// and push's append never has to grow it again.
	q.tasks = q.tasks[:copy(q.tasks, q.tasks[1:])]
	return t
}

func (q *runqueue) len() int { return len(q.tasks) }

func (q *runqueue) remove(t *Task) {
	for i, x := range q.tasks {
		if x == t {
			q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
			return
		}
	}
}

// RoundRobin is Kitten's cooperative scheduling policy: per-core FIFO
// queues, a low-rate tick, and rotation only after a full quantum — the
// LWK design points §III-a credits for the noise advantage.
type RoundRobin struct {
	// TickHz is the scheduler tick rate.
	TickHz sim.Hertz
	// TickCost is the tick handler: timer re-arm plus a constant-time
	// round-robin policy check.
	TickCost sim.Duration
	// QuantumTicks is the round-robin quantum in ticks.
	QuantumTicks int

	k  *Kernel
	rq []runqueue

	// Tick handling runs at TickHz on every core for the whole simulation;
	// the labels and per-core callbacks below are built once at Attach,
	// and Core.Exec's pooled activities carry them, so a tick allocates
	// nothing.
	tickLabel  string
	ctxswLabel string
	tickFns    []func()
	ctxswFns   []func()
}

// Attach implements Policy.
func (p *RoundRobin) Attach(k *Kernel) {
	p.k = k
	n := len(k.node.Cores)
	p.rq = make([]runqueue, n)
	p.tickLabel = k.cfg.Label + ".tick"
	p.ctxswLabel = k.cfg.Label + ".ctxsw"
	p.tickFns = make([]func(), n)
	p.ctxswFns = make([]func(), n)
	for _, c := range k.node.Cores {
		p.tickFns[c.ID()] = func() { p.tick(k, c) }
		p.ctxswFns[c.ID()] = func() { k.schedule(c) }
	}
}

// Boot implements Policy: stagger ticks across cores as Kitten does, so
// all cores do not tick in lockstep.
func (p *RoundRobin) Boot(k *Kernel) {
	period := p.TickHz.Period()
	for _, c := range k.node.Cores {
		offset := sim.Duration(uint64(period) * uint64(c.ID()) / uint64(len(k.node.Cores)))
		k.node.Timers.Core(c.ID()).Arm(timer.Phys, k.node.Now().Add(period+offset))
	}
}

// OnTick implements Policy (primary mode: Hafnium already charged
// delivery).
func (p *RoundRobin) OnTick(k *Kernel, c *machine.Core) {
	c.Exec(p.tickLabel, p.TickCost, p.tickFns[c.ID()])
}

// OnTickNative implements Policy (bare metal: fold in the GIC delivery).
func (p *RoundRobin) OnTickNative(k *Kernel, c *machine.Core, entry sim.Duration) {
	c.Exec(p.tickLabel, entry+p.TickCost, p.tickFns[c.ID()])
}

// tick: re-arm, account the quantum, rotate or resume.
func (p *RoundRobin) tick(k *Kernel, c *machine.Core) {
	k.mTicks.Inc()
	k.node.Timers.Core(c.ID()).ArmAfter(timer.Phys, p.TickHz.Period())
	id := c.ID()
	cur := k.current[id]
	if cur == nil {
		k.schedule(c)
		return
	}
	cur.ran++
	// Rotation is only legal when the displaced context is fully in hand:
	// a VCPU's state lives in Hafnium (depth 0 here), a process's single
	// frame on the suspension stack (depth 1). A deeper stack means the
	// tick landed inside a nested handler chain — defer rotation.
	canRotate := (cur.vc != nil && c.Depth() == 0) || (cur.vc == nil && c.Depth() == 1)
	if cur.ran >= p.QuantumTicks && p.rq[id].len() > 0 && canRotate {
		k.deschedule(c, cur)
		c.Exec(p.ctxswLabel, k.cfg.CtxSwitch, p.ctxswFns[id])
		return
	}
	k.resume(c)
}

// Enqueue implements Policy.
func (p *RoundRobin) Enqueue(t *Task) { p.rq[t.core].push(t) }

// PickNext implements Policy.
func (p *RoundRobin) PickNext(core int) *Task { return p.rq[core].pop() }

// Unpick implements Policy: a popped stale task is simply dropped.
func (p *RoundRobin) Unpick(core int, t *Task) {}

// Requeue implements Policy.
func (p *RoundRobin) Requeue(core int, t *Task) { p.rq[core].push(t) }

// Block implements Policy: the current task is never queued, nothing to
// undo.
func (p *RoundRobin) Block(core int, t *Task) {}

// OnWake implements Policy: move (or add) the task to the queue tail;
// remove first to avoid double-queuing.
func (p *RoundRobin) OnWake(t *Task) {
	p.rq[t.core].remove(t)
	p.rq[t.core].push(t)
}

// Remove implements Policy: Kitten leaves dead tasks to be popped and
// dropped by the scheduler's staleness check.
func (p *RoundRobin) Remove(t *Task) {}

// RunKthread implements Policy: Kitten has no background threads at all.
func (p *RoundRobin) RunKthread(k *Kernel, c *machine.Core, t *Task) {
	panic("kernel: round-robin policy has no kthreads")
}

// TimesliceFor implements Policy: every task gets the fixed quantum.
func (p *RoundRobin) TimesliceFor(t *Task) sim.Duration {
	return sim.Duration(p.QuantumTicks) * p.TickHz.Period()
}
