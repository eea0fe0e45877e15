// Package gic models an ARM GICv2-style interrupt controller: a shared
// distributor plus one CPU interface per core. It supports the three ARM
// interrupt classes (SGI 0–15, PPI 16–31, SPI 32+), per-IRQ enables and
// priorities, per-core pending/active state, and the acknowledge/EOI
// protocol.
//
// Each node has exactly one Distributor, the physical GIC, built by
// machine.New. Hafnium gives the primary VM that GIC and keeps no second
// one for secondaries: it queues their virtual interrupts per VCPU.
//
// The state is dense, because every timer tick crosses it: per-IRQ
// configuration is a slice indexed by IRQ ID, and each core's pending and
// active sets are bitsets, so no map, sort or allocation sits on the
// raise, acknowledge or EOI path.
package gic

import (
	"fmt"
	"math/bits"
)

// IRQ class boundaries.
const (
	NumSGI      = 16 // software-generated, per core
	FirstPPI    = 16 // private peripheral, per core
	FirstSPI    = 32 // shared peripheral, global
	SpuriousIRQ = 1023
)

// Well-known PPI numbers on ARMv8 systems (from the architecture's
// recommended assignments, used by Linux and Hafnium alike).
const (
	IRQVirtualTimer = 27 // EL1 virtual timer
	IRQHypTimer     = 26 // EL2 physical timer
	IRQPhysTimer    = 30 // EL1 physical timer
	IRQSecureTimer  = 29 // EL3/secure physical timer
)

// Class describes which kind of interrupt an IRQ ID is.
type Class int

// Interrupt classes.
const (
	SGI Class = iota
	PPI
	SPI
)

// ClassOf reports the class of an IRQ ID.
func ClassOf(irq int) Class {
	switch {
	case irq < FirstPPI:
		return SGI
	case irq < FirstSPI:
		return PPI
	default:
		return SPI
	}
}

// String names the class as the GIC architecture does: SGI, PPI or SPI.
func (c Class) String() string {
	switch c {
	case SGI:
		return "SGI"
	case PPI:
		return "PPI"
	default:
		return "SPI"
	}
}

// Asserter receives the distributor's "IRQ line high" signal for a core.
// The machine's Core implements it; delivery timing (interrupt masking,
// priorities already filtered here) is the core's business.
type Asserter interface {
	AssertIRQ(core int)
}

// irqState is one IRQ's configuration. It is kept to three bytes, since
// every node holds one per IRQ ID.
type irqState struct {
	enabled  bool
	priority uint8 // lower value = higher priority, GIC convention
	target   uint8 // SPI routing target core
}

// defaultPriority is every IRQ's priority until SetPriority changes it.
const defaultPriority = 0xA0

// MaxCores is the most CPU interfaces a Distributor serves: the most an
// SPI's one-byte routing target can name.
const MaxCores = 256

// Distributor is the shared half of the GIC plus all per-core interfaces.
type Distributor struct {
	cores    int
	words    int        // bitset words per core: one bit per IRQ ID
	state    []irqState // indexed by IRQ ID, FirstSPI+spis entries
	pending  []uint64   // core c's pending set is words [c*words, (c+1)*words)
	active   []uint64   // likewise: acknowledged, awaiting EOI
	maskPrio []uint8    // per core: priority mask (PMR); IRQs with priority >= mask are filtered
	sink     Asserter
	stats    Stats
}

// Stats counts distributor activity.
type Stats struct {
	Raised   uint64
	Acked    uint64
	EOIs     uint64
	Spurious uint64
	Dropped  uint64 // raised while disabled
}

// New builds a distributor for the given core count and SPI capacity.
func New(cores, spis int) *Distributor {
	if cores <= 0 {
		panic("gic: no cores")
	}
	if cores > MaxCores {
		panic(fmt.Sprintf("gic: %d cores, at most %d", cores, MaxCores))
	}
	n := max(FirstSPI+spis, 0)
	words := (n + 63) / 64
	d := &Distributor{
		cores:    cores,
		words:    words,
		state:    make([]irqState, n),
		pending:  make([]uint64, cores*words),
		active:   make([]uint64, cores*words),
		maskPrio: make([]uint8, cores),
	}
	for i := range d.state {
		d.state[i].priority = defaultPriority
	}
	for i := range d.maskPrio {
		d.maskPrio[i] = 0xFF // unmasked
	}
	return d
}

// set returns core's slice of a per-core bitset (pending or active).
func (d *Distributor) set(bitset []uint64, core int) []uint64 {
	return bitset[core*d.words : (core+1)*d.words]
}

// has reports whether irq's bit is set in a core's set.
func has(set []uint64, irq int) bool { return set[irq/64]&(1<<(irq%64)) != 0 }

// SetSink installs the delivery callback (the machine's core array).
func (d *Distributor) SetSink(s Asserter) { d.sink = s }

// Cores reports the number of CPU interfaces.
func (d *Distributor) Cores() int { return d.cores }

// Stats returns a snapshot of the counters.
func (d *Distributor) Stats() Stats { return d.stats }

func (d *Distributor) inRange(irq int) bool { return irq >= 0 && irq < len(d.state) }

func (d *Distributor) validIRQ(irq int) error {
	if !d.inRange(irq) {
		return fmt.Errorf("gic: IRQ %d out of range", irq)
	}
	return nil
}

func (d *Distributor) validCore(core int) error {
	if core < 0 || core >= d.cores {
		return fmt.Errorf("gic: core %d out of range", core)
	}
	return nil
}

// Enable makes an IRQ deliverable.
func (d *Distributor) Enable(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.state[irq].enabled = true
	return nil
}

// Disable stops delivery of an IRQ; pending state is retained.
func (d *Distributor) Disable(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.state[irq].enabled = false
	return nil
}

// Enabled reports whether the IRQ is enabled.
func (d *Distributor) Enabled(irq int) bool {
	return d.inRange(irq) && d.state[irq].enabled
}

// SetPriority assigns the IRQ's priority (lower = more urgent).
func (d *Distributor) SetPriority(irq int, prio uint8) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.state[irq].priority = prio
	return nil
}

// Route sets the target core for an SPI.
func (d *Distributor) Route(irq, core int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != SPI {
		return fmt.Errorf("gic: IRQ %d is not an SPI", irq)
	}
	if err := d.validCore(core); err != nil {
		return err
	}
	d.state[irq].target = uint8(core)
	return nil
}

// RaiseSPI marks a shared interrupt pending and asserts its routed core.
func (d *Distributor) RaiseSPI(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != SPI {
		return fmt.Errorf("gic: RaiseSPI on %s %d", ClassOf(irq), irq)
	}
	return d.raiseOn(irq, int(d.state[irq].target))
}

// RaisePPI marks a private interrupt pending on one core.
func (d *Distributor) RaisePPI(core, irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != PPI {
		return fmt.Errorf("gic: RaisePPI on %s %d", ClassOf(irq), irq)
	}
	if err := d.validCore(core); err != nil {
		return err
	}
	return d.raiseOn(irq, core)
}

// SendSGI delivers a software-generated interrupt from one core to another
// (inter-processor interrupt). Hafnium's Kitten port uses these for
// cross-core VM management kicks.
func (d *Distributor) SendSGI(toCore, irq int) error {
	if irq < 0 || irq >= NumSGI {
		return fmt.Errorf("gic: SGI %d out of range", irq)
	}
	if err := d.validCore(toCore); err != nil {
		return err
	}
	return d.raiseOn(irq, toCore)
}

func (d *Distributor) raiseOn(irq, core int) error {
	s := &d.state[irq]
	if !s.enabled {
		d.stats.Dropped++
		return nil
	}
	d.stats.Raised++
	pend := d.set(d.pending, core)
	if has(pend, irq) || has(d.set(d.active, core), irq) {
		return nil // level already high / still in service
	}
	pend[irq/64] |= 1 << (irq % 64)
	if s.priority < d.maskPrio[core] && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

// SetPriorityMask sets the core's PMR; IRQs with priority >= mask are held.
func (d *Distributor) SetPriorityMask(core int, mask uint8) error {
	if err := d.validCore(core); err != nil {
		return err
	}
	d.maskPrio[core] = mask
	// Newly unmasked pending IRQs re-assert the line.
	if d.HasPending(core) && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

// HasPending reports whether the core has any deliverable pending IRQ.
func (d *Distributor) HasPending(core int) bool {
	mask := d.maskPrio[core]
	for w, word := range d.set(d.pending, core) {
		for ; word != 0; word &= word - 1 {
			s := &d.state[w*64+bits.TrailingZeros64(word)]
			if s.enabled && s.priority < mask {
				return true
			}
		}
	}
	return false
}

// Acknowledge returns the highest-priority deliverable pending IRQ for the
// core, moving it pending→active. With nothing pending it returns the
// spurious IRQ 1023, as real hardware does. Among equal priorities the
// lowest IRQ ID wins: the pending set is walked in ascending ID order and
// only a strictly more urgent IRQ displaces the current pick.
func (d *Distributor) Acknowledge(core int) int {
	best := SpuriousIRQ
	var bestPrio uint8 = 0xFF
	mask := d.maskPrio[core]
	pend := d.set(d.pending, core)
	for w, word := range pend {
		for ; word != 0; word &= word - 1 {
			irq := w*64 + bits.TrailingZeros64(word)
			s := &d.state[irq]
			if !s.enabled || s.priority >= mask {
				continue
			}
			if best == SpuriousIRQ || s.priority < bestPrio {
				best = irq
				bestPrio = s.priority
			}
		}
	}
	if best == SpuriousIRQ {
		d.stats.Spurious++
		return SpuriousIRQ
	}
	pend[best/64] &^= 1 << (best % 64)
	d.set(d.active, core)[best/64] |= 1 << (best % 64)
	d.stats.Acked++
	return best
}

// EOI signals end-of-interrupt, clearing the active state.
func (d *Distributor) EOI(core, irq int) error {
	if err := d.validCore(core); err != nil {
		return err
	}
	act := d.set(d.active, core)
	if !d.inRange(irq) || !has(act, irq) {
		return fmt.Errorf("gic: EOI for inactive IRQ %d on core %d", irq, core)
	}
	act[irq/64] &^= 1 << (irq % 64)
	// A still-pending instance (level interrupt) re-asserts.
	if d.HasPending(core) && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

// PendingCount reports the number of pending IRQs on a core (any state).
func (d *Distributor) PendingCount(core int) int {
	n := 0
	for _, word := range d.set(d.pending, core) {
		n += bits.OnesCount64(word)
	}
	return n
}
