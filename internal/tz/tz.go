// Package tz models ARM TrustZone as the paper's §II-b describes it: the
// system is divided into secure and non-secure worlds by firmware at EL3,
// memory is partitioned between the worlds during early boot, and the
// partition is then static. Non-secure software can never access secure
// memory; secure software can access both.
//
// The Monitor also implements the paper's §VII future-work extension —
// dynamic partitioning — behind an explicit capability, with an ablation
// bench comparing the static and dynamic paths.
package tz

import (
	"fmt"

	"khsim/internal/mem"
)

// World is one of TrustZone's two security states.
type World int

// The two worlds.
const (
	NonSecure World = iota
	Secure
)

// String returns the world's name: "secure" or "non-secure".
func (w World) String() string {
	if w == Secure {
		return "secure"
	}
	return "non-secure"
}

// SMCFunc identifies a secure monitor call. The numbering loosely follows
// the ARM SMC calling convention's fast-call ranges.
type SMCFunc uint32

// Monitor calls.
const (
	SMCWorldSwitch    SMCFunc = 0x8400_0001 // switch the calling core's world
	SMCPartitionQuery SMCFunc = 0x8400_0002
	SMCPartitionAdd   SMCFunc = 0x8400_0010 // dynamic extension only
	SMCPartitionFree  SMCFunc = 0x8400_0011 // dynamic extension only
)

// Monitor is the EL3 firmware state: the world each core is executing in
// and the secure/non-secure memory partition.
type Monitor struct {
	phys      *mem.Map
	secure    []mem.Region // secure carve-outs, subsets of phys regions
	coreWorld []World
	frozen    bool
	dynamic   bool // future-work extension: runtime repartitioning

	// SwitchCount counts world switches for the ablation bench.
	SwitchCount uint64
}

// NewMonitor builds an EL3 monitor over the node's physical map.
// If dynamic is true the PartitionAdd/Free SMCs work after boot freeze
// (the paper's proposed extension); otherwise they are rejected, matching
// current TrustZone firmware.
func NewMonitor(phys *mem.Map, cores int, dynamic bool) *Monitor {
	return &Monitor{phys: phys, coreWorld: make([]World, cores), dynamic: dynamic}
}

// AddSecureRegion carves [base, base+size) out as secure memory. Before
// Freeze this models boot-time configuration; afterwards it requires the
// dynamic extension.
func (m *Monitor) AddSecureRegion(name string, base mem.PA, size uint64) error {
	if m.frozen && !m.dynamic {
		return fmt.Errorf("tz: partition frozen at boot (dynamic partitioning not enabled)")
	}
	if size == 0 {
		return fmt.Errorf("tz: zero-size secure region")
	}
	r := mem.Region{Name: name, Base: base, Size: size, Attr: mem.Attr{Secure: true}}
	// The carve-out must lie inside exactly one physical region.
	host, ok := m.phys.Find(base)
	if !ok || !host.Contains(base, size) {
		return fmt.Errorf("tz: secure region %s not backed by physical memory", r)
	}
	for _, s := range m.secure {
		if s.Overlaps(r) {
			return fmt.Errorf("tz: secure region %s overlaps %s", r, s)
		}
	}
	m.secure = append(m.secure, r)
	return nil
}

// FreeSecureRegion returns a secure carve-out to the non-secure world.
// Only available with the dynamic extension after freeze.
func (m *Monitor) FreeSecureRegion(name string) error {
	if m.frozen && !m.dynamic {
		return fmt.Errorf("tz: partition frozen at boot")
	}
	for i, s := range m.secure {
		if s.Name == name {
			m.secure = append(m.secure[:i], m.secure[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("tz: no secure region %q", name)
}

// Freeze marks early boot complete: on baseline hardware the partition is
// immutable from here on.
func (m *Monitor) Freeze() { m.frozen = true }

// Frozen reports whether boot-time configuration has ended.
func (m *Monitor) Frozen() bool { return m.frozen }

// SecureRegions returns the current secure carve-outs.
func (m *Monitor) SecureRegions() []mem.Region {
	out := make([]mem.Region, len(m.secure))
	copy(out, m.secure)
	return out
}

// WorldOf reports which world a physical address belongs to.
func (m *Monitor) WorldOf(a mem.PA) World {
	for _, s := range m.secure {
		if s.Contains(a, 1) {
			return Secure
		}
	}
	return NonSecure
}

// CanAccess enforces the TrustZone rule: secure world sees everything,
// non-secure world sees only non-secure memory.
func (m *Monitor) CanAccess(w World, a mem.PA, size uint64) bool {
	if w == Secure {
		return true
	}
	if size == 0 {
		return true
	}
	// Every byte must be non-secure; checking region boundaries suffices
	// because carve-outs are whole regions.
	if m.WorldOf(a) == Secure || m.WorldOf(a+mem.PA(size-1)) == Secure {
		return false
	}
	for _, s := range m.secure {
		if s.Overlaps(mem.Region{Base: a, Size: size}) {
			return false
		}
	}
	return true
}

// CoreWorld reports the world core is currently executing in.
func (m *Monitor) CoreWorld(core int) World { return m.coreWorld[core] }

// SMC handles a secure monitor call from a core. arg carries the
// function-specific operand (e.g. a region size).
func (m *Monitor) SMC(core int, fn SMCFunc, name string, base mem.PA, size uint64) (uint64, error) {
	if core < 0 || core >= len(m.coreWorld) {
		return 0, fmt.Errorf("tz: SMC from invalid core %d", core)
	}
	switch fn {
	case SMCWorldSwitch:
		if m.coreWorld[core] == Secure {
			m.coreWorld[core] = NonSecure
		} else {
			m.coreWorld[core] = Secure
		}
		m.SwitchCount++
		return uint64(m.coreWorld[core]), nil
	case SMCPartitionQuery:
		var total uint64
		for _, s := range m.secure {
			total += s.Size
		}
		return total, nil
	case SMCPartitionAdd:
		if m.frozen && !m.dynamic {
			return 0, fmt.Errorf("tz: SMC PartitionAdd rejected: static partitioning")
		}
		if m.coreWorld[core] != Secure {
			return 0, fmt.Errorf("tz: SMC PartitionAdd from non-secure world")
		}
		return 0, m.AddSecureRegion(name, base, size)
	case SMCPartitionFree:
		if m.frozen && !m.dynamic {
			return 0, fmt.Errorf("tz: SMC PartitionFree rejected: static partitioning")
		}
		if m.coreWorld[core] != Secure {
			return 0, fmt.Errorf("tz: SMC PartitionFree from non-secure world")
		}
		return 0, m.FreeSecureRegion(name)
	default:
		return 0, fmt.Errorf("tz: unknown SMC %#x", uint32(fn))
	}
}
