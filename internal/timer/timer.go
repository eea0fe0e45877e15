// Package timer models the ARMv8 generic timer: each core has independent
// physical and virtual timer channels that raise private peripheral
// interrupts (PPIs) through the GIC when armed deadlines pass.
//
// The split matters for the paper's architecture: Hafnium keeps the
// physical timer for the primary VM's scheduler ticks and exposes the
// dedicated *virtual* timer channel to secondary VMs (§IV-b), so a
// secondary's timer interrupts arrive without primary-VM involvement.
package timer

import (
	"fmt"

	"khsim/internal/gic"
	"khsim/internal/sim"
)

// Channel identifies one of a core's timer channels.
type Channel int

// Timer channels and their architectural PPI assignments.
const (
	Phys Channel = iota // EL1 physical timer, PPI 30
	Virt                // EL1 virtual timer, PPI 27
	Hyp                 // EL2 timer, PPI 26
	numChannels
)

// PPI reports the interrupt ID the channel raises.
func (c Channel) PPI() int {
	switch c {
	case Phys:
		return gic.IRQPhysTimer
	case Virt:
		return gic.IRQVirtualTimer
	case Hyp:
		return gic.IRQHypTimer
	default:
		panic(fmt.Sprintf("timer: bad channel %d", int(c)))
	}
}

// String names the channel: "phys", "virt" or "hyp".
func (c Channel) String() string {
	switch c {
	case Phys:
		return "phys"
	case Virt:
		return "virt"
	case Hyp:
		return "hyp"
	default:
		return fmt.Sprintf("Channel(%d)", int(c))
	}
}

// CoreTimers is the per-core bank of timer channels.
type CoreTimers struct {
	core  int
	eng   *sim.Engine
	dist  *gic.Distributor
	fired [numChannels]uint64

	// cval holds each channel's compare value as an engine register,
	// built on the channel's first Arm and re-armed ever after, so Arm —
	// the highest-frequency call in a ticking kernel — allocates only
	// once per channel, and a channel never armed (the EL2 timer, and the
	// virtual timer of a core no secondary runs on) costs nothing.
	cval [numChannels]*sim.Register
}

// Bank wires one CoreTimers per core to the engine and distributor.
type Bank struct {
	timers []*CoreTimers
}

// NewBank creates timers for each of cores cores.
func NewBank(eng *sim.Engine, dist *gic.Distributor, cores int) *Bank {
	b := &Bank{timers: make([]*CoreTimers, cores)}
	for i := range b.timers {
		b.timers[i] = &CoreTimers{core: i, eng: eng, dist: dist}
	}
	return b
}

// Core returns core i's timer bank.
func (b *Bank) Core(i int) *CoreTimers { return b.timers[i] }

// Arm sets the channel's compare value to fire at the absolute time at,
// replacing any previously armed deadline on that channel (CVAL
// semantics). Deadlines in the past fire immediately, as hardware does.
func (t *CoreTimers) Arm(ch Channel, at sim.Time) {
	if at <= t.eng.Now() {
		at = t.eng.Now()
	}
	r := t.cval[ch]
	if r == nil {
		r = t.eng.NewRegister(fmt.Sprintf("timer.c%d.%v", t.core, ch), func() { t.expire(ch) })
		t.cval[ch] = r
	}
	r.Arm(at)
}

// expire is the deadline callback shared by every Arm on the channel.
func (t *CoreTimers) expire(ch Channel) {
	t.fired[ch]++
	if err := t.dist.RaisePPI(t.core, ch.PPI()); err != nil {
		panic(fmt.Sprintf("timer: raise failed: %v", err))
	}
}

// ArmAfter arms the channel d from now (TVAL semantics).
func (t *CoreTimers) ArmAfter(ch Channel, d sim.Duration) {
	t.Arm(ch, t.eng.Now().Add(d))
}

// CancelChannel disarms the channel if armed.
func (t *CoreTimers) CancelChannel(ch Channel) {
	if r := t.cval[ch]; r != nil {
		r.Disarm()
	}
}

// Armed reports whether the channel has a pending deadline.
func (t *CoreTimers) Armed(ch Channel) bool { return t.cval[ch] != nil && t.cval[ch].Armed() }

// Deadline reports the pending deadline, valid only when Armed.
func (t *CoreTimers) Deadline(ch Channel) sim.Time {
	if r := t.cval[ch]; r != nil {
		return r.When()
	}
	return 0
}

// ArmedSeq reports the engine seq the pending deadline drew when it was
// armed, valid only when Armed: it places the deadline among other
// firings at the same instant.
func (t *CoreTimers) ArmedSeq(ch Channel) uint64 {
	if r := t.cval[ch]; r != nil {
		return r.Seq()
	}
	return 0
}

// Fired reports how many times the channel has expired.
func (t *CoreTimers) Fired(ch Channel) uint64 { return t.fired[ch] }

// AddFired counts n expiries of the channel that its owner accounted in
// closed form instead of arming them (a lazy core's skipped ticks).
func (t *CoreTimers) AddFired(ch Channel, n uint64) { t.fired[ch] += n }
