package gic

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refDist is a deliberately naive distributor with the original map-based
// semantics: lazily created per-IRQ state at priority 0xA0, per-core
// pending and active sets as maps, and a lowest-ID tie-break by sorting
// the pending IDs on every acknowledge. It is the oracle for the dense
// Distributor.
type refDist struct {
	cores    int
	spis     int
	state    map[int]*refIRQ
	pending  []map[int]bool
	active   []map[int]bool
	maskPrio []uint8
	sink     Asserter
	stats    Stats
}

type refIRQ struct {
	enabled  bool
	priority uint8
	target   int
}

func newRefDist(cores, spis int) *refDist {
	d := &refDist{
		cores: cores, spis: spis,
		state:    map[int]*refIRQ{},
		pending:  make([]map[int]bool, cores),
		active:   make([]map[int]bool, cores),
		maskPrio: make([]uint8, cores),
	}
	for i := 0; i < cores; i++ {
		d.pending[i] = map[int]bool{}
		d.active[i] = map[int]bool{}
		d.maskPrio[i] = 0xFF
	}
	return d
}

func (d *refDist) validIRQ(irq int) error {
	if irq < 0 || irq >= FirstSPI+d.spis {
		return fmt.Errorf("ref: IRQ %d out of range", irq)
	}
	return nil
}

func (d *refDist) validCore(core int) error {
	if core < 0 || core >= d.cores {
		return fmt.Errorf("ref: core %d out of range", core)
	}
	return nil
}

func (d *refDist) irq(irq int) *refIRQ {
	s, ok := d.state[irq]
	if !ok {
		s = &refIRQ{priority: 0xA0}
		d.state[irq] = s
	}
	return s
}

func (d *refDist) Enable(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.irq(irq).enabled = true
	return nil
}

func (d *refDist) Disable(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.irq(irq).enabled = false
	return nil
}

func (d *refDist) Enabled(irq int) bool {
	s, ok := d.state[irq]
	return ok && s.enabled
}

func (d *refDist) SetPriority(irq int, prio uint8) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.irq(irq).priority = prio
	return nil
}

func (d *refDist) Route(irq, core int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != SPI {
		return fmt.Errorf("ref: IRQ %d is not an SPI", irq)
	}
	if err := d.validCore(core); err != nil {
		return err
	}
	d.irq(irq).target = core
	return nil
}

func (d *refDist) RaiseSPI(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != SPI {
		return fmt.Errorf("ref: RaiseSPI on %d", irq)
	}
	return d.raiseOn(irq, d.irq(irq).target)
}

func (d *refDist) RaisePPI(core, irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != PPI {
		return fmt.Errorf("ref: RaisePPI on %d", irq)
	}
	if err := d.validCore(core); err != nil {
		return err
	}
	return d.raiseOn(irq, core)
}

func (d *refDist) SendSGI(toCore, irq int) error {
	if irq < 0 || irq >= NumSGI {
		return fmt.Errorf("ref: SGI %d out of range", irq)
	}
	if err := d.validCore(toCore); err != nil {
		return err
	}
	return d.raiseOn(irq, toCore)
}

func (d *refDist) raiseOn(irq, core int) error {
	s := d.irq(irq)
	if !s.enabled {
		d.stats.Dropped++
		return nil
	}
	d.stats.Raised++
	if d.pending[core][irq] || d.active[core][irq] {
		return nil
	}
	d.pending[core][irq] = true
	if s.priority < d.maskPrio[core] && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

func (d *refDist) SetPriorityMask(core int, mask uint8) error {
	if err := d.validCore(core); err != nil {
		return err
	}
	d.maskPrio[core] = mask
	if d.HasPending(core) && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

func (d *refDist) HasPending(core int) bool {
	for irq := range d.pending[core] {
		s := d.irq(irq)
		if s.enabled && s.priority < d.maskPrio[core] {
			return true
		}
	}
	return false
}

func (d *refDist) Acknowledge(core int) int {
	var ids []int
	for irq := range d.pending[core] {
		ids = append(ids, irq)
	}
	sort.Ints(ids)
	best, bestPrio := SpuriousIRQ, uint8(0xFF)
	for _, irq := range ids {
		s := d.irq(irq)
		if !s.enabled || s.priority >= d.maskPrio[core] {
			continue
		}
		if best == SpuriousIRQ || s.priority < bestPrio {
			best, bestPrio = irq, s.priority
		}
	}
	if best == SpuriousIRQ {
		d.stats.Spurious++
		return SpuriousIRQ
	}
	delete(d.pending[core], best)
	d.active[core][best] = true
	d.stats.Acked++
	return best
}

func (d *refDist) EOI(core, irq int) error {
	if err := d.validCore(core); err != nil {
		return err
	}
	if !d.active[core][irq] {
		return fmt.Errorf("ref: EOI for inactive IRQ %d", irq)
	}
	delete(d.active[core], irq)
	if d.HasPending(core) && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

func (d *refDist) PendingCount(core int) int { return len(d.pending[core]) }

// refSnap is a deep copy of a refDist's state.
type refSnap struct {
	state           map[int]refIRQ
	pending, active []map[int]bool
	maskPrio        []uint8
	stats           Stats
}

func copySets(sets []map[int]bool) []map[int]bool {
	out := make([]map[int]bool, len(sets))
	for i, set := range sets {
		out[i] = map[int]bool{}
		for irq := range set {
			out[i][irq] = true
		}
	}
	return out
}

func (d *refDist) snapshot() *refSnap {
	s := &refSnap{
		state:    map[int]refIRQ{},
		pending:  copySets(d.pending),
		active:   copySets(d.active),
		maskPrio: append([]uint8(nil), d.maskPrio...),
		stats:    d.stats,
	}
	for irq, st := range d.state {
		s.state[irq] = *st
	}
	return s
}

func (d *refDist) restore(s *refSnap) {
	d.state = map[int]*refIRQ{}
	for irq, st := range s.state {
		cp := st
		d.state[irq] = &cp
	}
	d.pending = copySets(s.pending)
	d.active = copySets(s.active)
	copy(d.maskPrio, s.maskPrio)
	d.stats = s.stats
}

// TestPropDistributorMatchesReference drives the dense Distributor and
// the map-based reference with the same random operation sequence on 2–4
// cores: raises across SGI, PPI and SPI, enable/disable, priorities
// (equal ones included), priority masks, routing, acknowledge, EOI, and
// snapshot/restore. The IRQ pool includes the IDs on bitset word
// boundaries. Every Acknowledge, HasPending, PendingCount and error
// result, every sink assertion, and the counters must match.
func TestPropDistributorMatchesReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cores := 2 + rng.Intn(3)
		spis := []int{96, 97, 128, 224}[rng.Intn(4)]
		last := FirstSPI + spis - 1
		pool := []int{0, 1, 7, 15, 16, IRQHypTimer, IRQVirtualTimer, IRQPhysTimer, 31, 32, 33, 40, 63, 64, last - 1, last, last + 1}
		if last >= 128 {
			pool = append(pool, 127, 128)
		}
		prios := []uint8{0x20, 0x80, 0xA0, 0xA0, 0xFE}
		masks := []uint8{0xFF, 0xFF, 0xA1, 0xA0, 0x81, 0x21}

		d, ref := New(cores, spis), newRefDist(cores, spis)
		got, want := &recorder{}, &recorder{}
		d.SetSink(got)
		ref.sink = want

		var snap *distributorState
		var rsnap *refSnap
		for op := 0; op < 600; op++ {
			irq := pool[rng.Intn(len(pool))]
			core := rng.Intn(cores)
			var errD, errR error
			what := ""
			switch r := rng.Intn(20); {
			case r < 2:
				what = fmt.Sprintf("Enable(%d)", irq)
				errD, errR = d.Enable(irq), ref.Enable(irq)
			case r < 3:
				what = fmt.Sprintf("Disable(%d)", irq)
				errD, errR = d.Disable(irq), ref.Disable(irq)
			case r < 4:
				p := prios[rng.Intn(len(prios))]
				what = fmt.Sprintf("SetPriority(%d, %#x)", irq, p)
				errD, errR = d.SetPriority(irq, p), ref.SetPriority(irq, p)
			case r < 5:
				m := masks[rng.Intn(len(masks))]
				what = fmt.Sprintf("SetPriorityMask(%d, %#x)", core, m)
				errD, errR = d.SetPriorityMask(core, m), ref.SetPriorityMask(core, m)
			case r < 6:
				what = fmt.Sprintf("Route(%d, %d)", irq, core)
				errD, errR = d.Route(irq, core), ref.Route(irq, core)
			case r < 10:
				switch ClassOf(irq) {
				case SGI:
					what = fmt.Sprintf("SendSGI(%d, %d)", core, irq)
					errD, errR = d.SendSGI(core, irq), ref.SendSGI(core, irq)
				case PPI:
					what = fmt.Sprintf("RaisePPI(%d, %d)", core, irq)
					errD, errR = d.RaisePPI(core, irq), ref.RaisePPI(core, irq)
				default:
					what = fmt.Sprintf("RaiseSPI(%d)", irq)
					errD, errR = d.RaiseSPI(irq), ref.RaiseSPI(irq)
				}
			case r < 14:
				what = fmt.Sprintf("Acknowledge(%d)", core)
				if a, b := d.Acknowledge(core), ref.Acknowledge(core); a != b {
					t.Fatalf("trial %d op %d: %s = %d, reference %d", trial, op, what, a, b)
				}
			case r < 17:
				// EOI mostly what the reference has active, sometimes anything.
				var act []int
				for id := range ref.active[core] {
					act = append(act, id)
				}
				if sort.Ints(act); len(act) > 0 && rng.Intn(4) != 0 {
					irq = act[rng.Intn(len(act))]
				}
				what = fmt.Sprintf("EOI(%d, %d)", core, irq)
				errD, errR = d.EOI(core, irq), ref.EOI(core, irq)
			case r < 18:
				what = "Snapshot"
				snap, rsnap = d.Snapshot().(*distributorState), ref.snapshot()
			case r < 19:
				if snap == nil {
					continue
				}
				what = "Restore"
				d.Restore(snap)
				ref.restore(rsnap)
			default:
				what = fmt.Sprintf("Enabled(%d)", irq)
				if a, b := d.Enabled(irq), ref.Enabled(irq); a != b {
					t.Fatalf("trial %d op %d: %s = %v, reference %v", trial, op, what, a, b)
				}
			}
			if (errD == nil) != (errR == nil) {
				t.Fatalf("trial %d op %d: %s error %v, reference %v", trial, op, what, errD, errR)
			}
			if fmt.Sprint(got.asserted) != fmt.Sprint(want.asserted) {
				t.Fatalf("trial %d op %d: after %s sink saw %v, reference %v", trial, op, what, got.asserted, want.asserted)
			}
			for c := 0; c < cores; c++ {
				if a, b := d.HasPending(c), ref.HasPending(c); a != b {
					t.Fatalf("trial %d op %d: after %s HasPending(%d) = %v, reference %v", trial, op, what, c, a, b)
				}
				if a, b := d.PendingCount(c), ref.PendingCount(c); a != b {
					t.Fatalf("trial %d op %d: after %s PendingCount(%d) = %d, reference %d", trial, op, what, c, a, b)
				}
			}
			if d.Stats() != ref.stats {
				t.Fatalf("trial %d op %d: after %s stats %+v, reference %+v", trial, op, what, d.Stats(), ref.stats)
			}
		}
	}
}

// TestOutOfRangeIRQQueries pins that Enabled and EOI answer an IRQ
// outside the distributor's range without panicking: Enabled is false
// and EOI is an error.
func TestOutOfRangeIRQQueries(t *testing.T) {
	const spis = 128
	d := New(2, spis)
	for _, irq := range []int{-1, FirstSPI + spis, SpuriousIRQ} {
		if d.Enabled(irq) {
			t.Errorf("Enabled(%d) = true", irq)
		}
		if err := d.EOI(0, irq); err == nil {
			t.Errorf("EOI(0, %d) accepted", irq)
		}
	}
}
