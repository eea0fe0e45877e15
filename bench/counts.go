package main

import (
	"khsim/internal/hafnium"
	"khsim/internal/machine"
	"khsim/internal/sim"
)

// stackCounts are the deterministic per-layer tallies of one simulated
// node, read from outside through its engine, cores, hypervisor counters
// and metrics registry.
type stackCounts struct {
	events         uint64
	busy, capacity sim.Duration // Σ core busy time; Σ cores × simulated time
	switchCost     uint64       // el2 world-switch cost, in simulated time units

	worldSwitches, injections, messages  uint64
	recyclesWarm, recyclesCold, scrubbed uint64

	kernelTicks, guestTicks, wakeups uint64
}

// countStack reads a node's tallies; h is nil for a native node.
func countStack(m *machine.Node, h *hafnium.Hypervisor) stackCounts {
	c := stackCounts{
		events:   m.Engine.Fired(),
		capacity: sim.Duration(m.Now()) * sim.Duration(len(m.Cores)),
	}
	for _, core := range m.Cores {
		c.busy += core.BusyTime()
	}
	if h != nil {
		s := h.Stats()
		c.worldSwitches, c.injections, c.messages = s.WorldSwitches, s.Injections, s.Messages
		c.recyclesWarm, c.recyclesCold, c.scrubbed = s.RecyclesWarm, s.RecyclesCold, s.ScrubbedPages
	}
	for _, p := range m.Metrics.Snapshot().Counters {
		switch p.Key.Subsystem + "." + p.Key.Name {
		case "kernel.ticks":
			c.kernelTicks += p.Value
		case "guest.ticks":
			c.guestTicks += p.Value
		case "kernel.wakeups":
			c.wakeups += p.Value
		case "el2.world_switch_ps":
			c.switchCost += p.Value
		}
	}
	return c
}

// add accumulates o into c; sign -1 subtracts it, which turns two reads
// of one node into the tallies of the interval between them.
func (c *stackCounts) add(o stackCounts, sign int) {
	s := uint64(sign) // two's complement: adding uint64(-1)*x subtracts x
	c.events += s * o.events
	c.busy += sim.Duration(sign) * o.busy
	c.capacity += sim.Duration(sign) * o.capacity
	c.switchCost += s * o.switchCost
	c.worldSwitches += s * o.worldSwitches
	c.injections += s * o.injections
	c.messages += s * o.messages
	c.recyclesWarm += s * o.recyclesWarm
	c.recyclesCold += s * o.recyclesCold
	c.scrubbed += s * o.scrubbed
	c.kernelTicks += s * o.kernelTicks
	c.guestTicks += s * o.guestTicks
	c.wakeups += s * o.wakeups
}

// report sets the per-layer metrics the tallies cover.
func (c *stackCounts) report(r *runner) {
	r.set("sim.events", float64(c.events))
	if c.capacity > 0 {
		r.set("machine.core_busy_pct", 100*float64(c.busy)/float64(c.capacity))
		r.set("hafnium.world_switch_pct", 100*float64(c.switchCost)/float64(c.capacity))
	}
	r.set("hafnium.world_switches", float64(c.worldSwitches))
	r.set("hafnium.injections", float64(c.injections))
	r.set("hafnium.messages", float64(c.messages))
	r.set("hafnium.recycles_warm", float64(c.recyclesWarm))
	r.set("hafnium.recycles_cold", float64(c.recyclesCold))
	r.set("hafnium.scrubbed_pages", float64(c.scrubbed))
	r.set("kernel.ticks", float64(c.kernelTicks))
	r.set("guest.ticks", float64(c.guestTicks))
	r.set("kernel.wakeups", float64(c.wakeups))
}
