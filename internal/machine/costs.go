package machine

import "khsim/internal/sim"

// Costs are the hardware-level latencies the simulator charges for
// architectural operations. They are expressed as durations (converted
// once from cycle counts at the node frequency) so OS models can add them
// up without caring about clock rates.
//
// Defaults approximate a Cortex-A53 at 1.152 GHz — the Pine A64-LTS used
// in the paper's evaluation. Sources for the ballparks: exception
// entry/return microbenchmarks on A53 (~450–600 cycles EL1 round trip),
// KVM/Hafnium world-switch studies (~2500–4000 cycles for a full EL2
// save/restore of GPRs, sysregs, FPSIMD and GIC state), and DRAM-latency
// measurements for the A64's DDR3-667.
type Costs struct {
	// ExceptionEntry is EL0/EL1 → same-or-higher EL trap entry (pipeline
	// flush, vector fetch, register stash).
	ExceptionEntry sim.Duration
	// ExceptionReturn is the matching eret path.
	ExceptionReturn sim.Duration
	// HypTrap is the extra cost of trapping EL1 → EL2 (stage-2-aware
	// sysreg context, HCR manipulation) beyond a plain exception.
	HypTrap sim.Duration
	// WorldSwitch is a full EL2 VM context switch: save the outgoing
	// VCPU's GPRs/sysregs/FPSIMD/vGIC state and restore the incoming one's.
	WorldSwitch sim.Duration
	// TLBRefill is one TLB fill from a single-stage walk hitting in the
	// page-table caches (per-entry cost of rebuilding working-set after a
	// flush).
	TLBRefill sim.Duration
	// IPI is the cost of sending an SGI to another core.
	IPI sim.Duration
	// IRQDeliverGIC is the GIC acknowledge+EOI register traffic.
	IRQDeliverGIC sim.Duration
	// SMC is a secure monitor call round trip through EL3.
	SMC sim.Duration
	// S2MapPage is the per-page cost of building a stage-2 mapping from
	// scratch during a cold VM prepare: allocating/walking the table
	// levels amortized per leaf entry plus the descriptor write-back.
	S2MapPage sim.Duration
	// S2RestorePage is the per-dirtied-page cost of rewinding a live
	// stage-2 table to its copy-on-write warm snapshot: only descriptors
	// the VM dirtied since the snapshot are touched, so a warm prepare
	// pays this for the working set instead of S2MapPage for every page.
	S2RestorePage sim.Duration
	// PageScrub is the per-page cost of zeroing a 4 KiB frame with
	// streaming stores before it is handed to the next tenant.
	PageScrub sim.Duration
}

// DefaultFreq is the Pine A64-LTS Cortex-A53 clock used throughout the
// reproduction (the paper says "1.1 GHz"; the part runs at 1.152 GHz).
const DefaultFreq sim.Hertz = 1.152e9

// DefaultCosts returns the A53-calibrated cost set at frequency f.
func DefaultCosts(f sim.Hertz) Costs {
	cy := func(n float64) sim.Duration { return sim.Cycles(n, f) }
	return Costs{
		ExceptionEntry:  cy(300),
		ExceptionReturn: cy(250),
		HypTrap:         cy(400),
		WorldSwitch:     cy(3200),
		TLBRefill:       cy(35),
		IPI:             cy(450),
		IRQDeliverGIC:   cy(220),
		SMC:             cy(900),
		S2MapPage:       cy(180),
		S2RestorePage:   cy(120),
		PageScrub:       cy(1100),
	}
}

// DRAM models the node's shared memory system as latency plus a flat
// bandwidth. The paper's platform has a single-channel DDR3 interface;
// the absolute values are calibrated in internal/workload so the Native
// configuration reproduces the paper's Fig 8 numbers.
type DRAM struct {
	// Latency is the random-access (row-miss) load-to-use latency.
	Latency sim.Duration
	// Bandwidth is the sustainable streaming bandwidth in bytes/second.
	Bandwidth float64
}

// DefaultDRAM returns Pine-A64-like memory parameters.
func DefaultDRAM() DRAM {
	return DRAM{Latency: sim.FromNanos(110), Bandwidth: 1.3e9}
}

// StreamTime reports the time to stream n bytes at full bandwidth.
func (d DRAM) StreamTime(bytes float64) sim.Duration {
	return sim.Duration(bytes / d.Bandwidth * float64(sim.Second))
}
