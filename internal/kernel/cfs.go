package kernel

import (
	"fmt"
	"math"
)

// DefaultWeight is a CFS scheduling weight (nice 0 = 1024, as in Linux).
const DefaultWeight = 1024

// Entity is one CFS-schedulable entity.
type Entity struct {
	Name     string
	Weight   int
	vruntime float64 // weighted nanoseconds
	onRQ     bool
	owner    *Task // back-pointer for PickNext; nil for bare entities
}

// Vruntime reports the entity's virtual runtime in weighted nanoseconds.
func (e *Entity) Vruntime() float64 { return e.vruntime }

// OnRunqueue reports whether the entity is enqueued.
func (e *Entity) OnRunqueue() bool { return e.onRQ }

// CFS is a compact completely-fair-scheduler runqueue: entities ordered
// by virtual runtime, with the sleeper-fairness rule Linux applies on
// wakeup (a woken task's vruntime is clamped near the queue minimum so it
// preempts promptly — exactly the behaviour that makes kthread wakeups
// disturb a VCPU thread).
type CFS struct {
	queue     []*Entity // kept sorted by vruntime (small N: insertion sort)
	running   *Entity
	minv      float64
	latencyNS float64 // sched_latency: sleeper clamp window
}

// NewCFS builds a runqueue with the given sched-latency (nanoseconds).
func NewCFS(latencyNS float64) *CFS {
	return &CFS{latencyNS: latencyNS}
}

// Len reports the number of queued (runnable, not running) entities.
func (c *CFS) Len() int { return len(c.queue) }

// Running returns the entity currently on the CPU, if any.
func (c *CFS) Running() *Entity { return c.running }

// MinVruntime reports the queue's monotonically increasing floor.
func (c *CFS) MinVruntime() float64 { return c.minv }

func (c *CFS) insert(e *Entity) {
	i := 0
	for i < len(c.queue) && c.queue[i].vruntime <= e.vruntime {
		i++
	}
	c.queue = append(c.queue, nil)
	copy(c.queue[i+1:], c.queue[i:])
	c.queue[i] = e
	e.onRQ = true
}

// Enqueue adds a woken or new entity, applying the sleeper clamp: its
// vruntime is raised to at least (min - latency/2) so long sleeps do not
// let it monopolize the CPU, but it still lands at the queue front.
func (c *CFS) Enqueue(e *Entity) error {
	if e.onRQ || e == c.running {
		return fmt.Errorf("kernel: %s already queued", e.Name)
	}
	if e.Weight <= 0 {
		e.Weight = DefaultWeight
	}
	floor := c.minv - c.latencyNS/2
	if e.vruntime < floor {
		e.vruntime = floor
	}
	c.insert(e)
	return nil
}

// PickNext removes and returns the leftmost (lowest-vruntime) entity,
// making it the running entity. Returns nil when the queue is empty.
func (c *CFS) PickNext() *Entity {
	if len(c.queue) == 0 {
		c.running = nil
		return nil
	}
	e := c.queue[0]
	// Shift rather than reslice, so insert's append reuses the capacity.
	c.queue = c.queue[:copy(c.queue, c.queue[1:])]
	e.onRQ = false
	c.running = e
	if e.vruntime > c.minv {
		c.minv = e.vruntime
	}
	return e
}

// Account charges ran nanoseconds of CPU to the running entity.
func (c *CFS) Account(ranNS float64) {
	if c.running == nil {
		return
	}
	c.running.vruntime += ranNS * float64(DefaultWeight) / float64(c.running.Weight)
	if c.running.vruntime > c.minv {
		c.minv = c.running.vruntime
	}
}

// ShouldPreempt reports whether the running entity should yield to the
// queue head (wakeup-preemption check: the head is behind by more than
// the wakeup granularity).
func (c *CFS) ShouldPreempt(granularityNS float64) bool {
	if c.running == nil {
		return len(c.queue) > 0
	}
	if len(c.queue) == 0 {
		return false
	}
	return c.queue[0].vruntime+granularityNS < c.running.vruntime
}

// Requeue puts the running entity back (tick-driven round of fairness).
func (c *CFS) Requeue() {
	if c.running == nil {
		return
	}
	e := c.running
	c.running = nil
	c.insert(e)
}

// Dequeue removes the running entity (it blocked).
func (c *CFS) Dequeue() {
	c.running = nil
}

// Remove drops a queued entity (e.g. its task died).
func (c *CFS) Remove(e *Entity) {
	for i, x := range c.queue {
		if x == e {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			e.onRQ = false
			return
		}
	}
}

// SpreadNS reports max-min vruntime across queued+running entities — the
// fairness bound the property tests check.
func (c *CFS) SpreadNS() float64 {
	min, max := math.Inf(1), math.Inf(-1)
	consider := func(e *Entity) {
		if e.vruntime < min {
			min = e.vruntime
		}
		if e.vruntime > max {
			max = e.vruntime
		}
	}
	for _, e := range c.queue {
		consider(e)
	}
	if c.running != nil {
		consider(c.running)
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return max - min
}
