// Package linuxos models the Linux full-weight kernel in the roles the
// paper measures it: as Hafnium's default primary scheduling VM (the
// baseline Kitten replaces) and as a guest kernel. The model captures the
// noise-relevant behaviours §III-a blames for Linux's overhead: a CFS-like
// fair scheduler driven by a high-rate tick, background kernel threads
// that wake on their own timers, and deferred work placed on arbitrary
// cores. The scheduler itself lives in the shared substrate
// (internal/kernel, CFSPolicy); this package binds it to the Linux cost
// table.
package linuxos

import (
	"khsim/internal/kernel"
	"khsim/internal/sim"
)

// KthreadSpec describes one background kernel-thread population — the
// "background tasks that need to periodically run" and "deferred work
// that is randomly assigned to a CPU core" of §III-a (shared substrate
// type).
type KthreadSpec = kernel.KthreadSpec

// Params are the Linux model's scheduling and cost parameters.
type Params struct {
	// TickHz is CONFIG_HZ. The evaluation uses 250, the common distro
	// default on ARM64.
	TickHz sim.Hertz
	// TickCost is the tick path: jiffies update, timer wheel, CFS
	// update_curr, RCU bookkeeping — several times Kitten's constant-time
	// round-robin check.
	TickCost sim.Duration
	// CtxSwitch is a full context switch through schedule().
	CtxSwitch sim.Duration
	// WakeCost is charged per kthread wakeup (hrtimer dispatch + enqueue).
	WakeCost sim.Duration
	// SchedLatencyNS and WakeupGranularityNS are the CFS knobs.
	SchedLatencyNS      float64
	WakeupGranularityNS float64
	// EvictPages estimates guest-TLB entries one Linux activation evicts;
	// large, because tick+kthread paths touch many cache lines and pages —
	// the paper's "increased TLB pressure" (§V-b).
	EvictPages int
	// Kthreads is the background-noise population.
	Kthreads []KthreadSpec
}

// DefaultParams returns the Linux configuration used as the paper's
// baseline primary VM.
func DefaultParams() Params {
	return Params{
		TickHz:              250,
		TickCost:            sim.FromMicros(5.5),
		CtxSwitch:           sim.FromMicros(2.6),
		WakeCost:            sim.FromMicros(1.2),
		SchedLatencyNS:      6e6, // 6 ms
		WakeupGranularityNS: 1e6, // 1 ms
		EvictPages:          96,
		Kthreads: []KthreadSpec{
			{Name: "kworker", PerCore: false, MeanInterval: sim.FromSeconds(0.045),
				MinWork: sim.FromMicros(15), MaxWork: sim.FromMicros(90)},
			{Name: "ksoftirqd", PerCore: true, MeanInterval: sim.FromSeconds(0.12),
				MinWork: sim.FromMicros(8), MaxWork: sim.FromMicros(40)},
			{Name: "rcu_sched", PerCore: false, MeanInterval: sim.FromSeconds(0.03),
				MinWork: sim.FromMicros(4), MaxWork: sim.FromMicros(14)},
			{Name: "kswapd", PerCore: false, MeanInterval: sim.FromSeconds(1.8),
				MinWork: sim.FromMicros(120), MaxWork: sim.FromMicros(350)},
			{Name: "jbd2", PerCore: false, MeanInterval: sim.FromSeconds(0.6),
				MinWork: sim.FromMicros(40), MaxWork: sim.FromMicros(160)},
		},
	}
}

// QuietParams returns a Linux model with no kthread noise — used by
// ablation benches to separate tick-rate effects from background-thread
// effects.
func QuietParams() Params {
	p := DefaultParams()
	p.Kthreads = nil
	return p
}
