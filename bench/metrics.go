package main

// metricDef names one reported metric and its unit. Simulated metrics are
// exact for a given seed: they come from a workload's reference units
// only, so two runs with the same seed print them identically, traced or
// not. Host metrics are wall-clock measurements of this process.
type metricDef struct {
	name, unit string
	simulated  bool
}

// endToEnd are the metrics a user of the simulator sees on every
// workload: how long one unit of the workload's work takes, how long
// building the stacks it needs takes, and how much memory one live stack
// holds.
var endToEnd = []metricDef{
	{name: "unit_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "live_heap_mb", unit: "MB"},
}

// perLayer splits the run by layer. Every workload prints every one of
// them; a layer the workload does not exercise reads 0. Simulated times
// carry the unit sim_ms or sim_us so they are never mistaken for host
// time.
var perLayer = []metricDef{
	// Headline simulated results of the paper, serving and cluster
	// experiments.
	{name: "paper.kitten_slowdown", unit: "x", simulated: true},
	{name: "paper.linux_slowdown", unit: "x", simulated: true},
	{name: "paper.kitten_noise_pct", unit: "%", simulated: true},
	{name: "paper.linux_noise_pct", unit: "%", simulated: true},
	{name: "serve.kitten.p50_ms", unit: "sim_ms", simulated: true},
	{name: "serve.kitten.p99_ms", unit: "sim_ms", simulated: true},
	{name: "serve.kitten.max_rate", unit: "1/s", simulated: true},
	{name: "serve.linux.p99_ms", unit: "sim_ms", simulated: true},
	{name: "serve.linux.max_rate", unit: "1/s", simulated: true},
	{name: "cluster.failover_ms", unit: "sim_ms", simulated: true},
	{name: "migration.downtime_ms", unit: "sim_ms", simulated: true},

	// Deterministic per-layer work counts.
	{name: "sim.events", unit: "count", simulated: true},
	{name: "machine.core_busy_pct", unit: "%", simulated: true},
	{name: "hafnium.world_switches", unit: "count", simulated: true},
	{name: "hafnium.world_switch_pct", unit: "%", simulated: true},
	{name: "hafnium.injections", unit: "count", simulated: true},
	{name: "hafnium.messages", unit: "count", simulated: true},
	{name: "hafnium.recycles_warm", unit: "count", simulated: true},
	{name: "hafnium.recycles_cold", unit: "count", simulated: true},
	{name: "hafnium.scrubbed_pages", unit: "count", simulated: true},
	{name: "hafnium.grants", unit: "count", simulated: true},
	{name: "hafnium.rejects", unit: "count", simulated: true},
	{name: "kernel.ticks", unit: "count", simulated: true},
	{name: "guest.ticks", unit: "count", simulated: true},
	{name: "kernel.wakeups", unit: "count", simulated: true},
	{name: "serve.latency_n", unit: "count", simulated: true},
	{name: "serve.p999_ms", unit: "sim_ms", simulated: true},
	{name: "serve.generated", unit: "count", simulated: true},
	{name: "serve.completed", unit: "count", simulated: true},
	{name: "serve.admit_retries", unit: "count", simulated: true},
	{name: "serve.done_retries", unit: "count", simulated: true},
	{name: "serve.reaps", unit: "count", simulated: true},
	{name: "serve.warm_prepares", unit: "count", simulated: true},
	{name: "serve.cold_prepares", unit: "count", simulated: true},
	{name: "serve.prepare_warm_us", unit: "sim_us", simulated: true},
	{name: "serve.prepare_cold_us", unit: "sim_us", simulated: true},
	{name: "tz.signatures", unit: "count", simulated: true},
	{name: "tz.ledger_records", unit: "count", simulated: true},
	{name: "net.sent", unit: "count", simulated: true},
	{name: "net.delivered", unit: "count", simulated: true},
	{name: "net.dropped", unit: "count", simulated: true},
	{name: "cluster.candidacies", unit: "count", simulated: true},
	{name: "migration.bytes_mb", unit: "MB", simulated: true},
	{name: "migration.rounds", unit: "count", simulated: true},
	{name: "migration.lost_abort_records", unit: "count", simulated: true},

	// Host time by layer call, from the bench's own spans.
	{name: "sim.ns_per_event", unit: "ns"},
	{name: "core.build_ms", unit: "ms"},
	{name: "core.boot_ms", unit: "ms"},
	{name: "core.build_pct", unit: "%"},
	{name: "core.attach_pct", unit: "%"},
	{name: "core.boot_pct", unit: "%"},
	{name: "sim.run_pct", unit: "%"},
	{name: "machine.fork_pct", unit: "%"},
	{name: "hafnium.share_pct", unit: "%"},
	{name: "hafnium.reclaim_pct", unit: "%"},
	{name: "hafnium.verify_pct", unit: "%"},
	{name: "cluster.failover_pct", unit: "%"},
	{name: "cluster.migration_pct", unit: "%"},
	{name: "unit.self_pct", unit: "%"},

	// Go runtime, per unit.
	{name: "alloc_mb", unit: "MB"},
	{name: "gc.cycles", unit: "count"},
	{name: "gc.pause_ms", unit: "ms"},

	// CPU profile of the traced units: self time by the leaf frame's
	// layer (these sum to 100), then cumulative shares.
	{name: "prof.sim_pct", unit: "%"},
	{name: "prof.machine_pct", unit: "%"},
	{name: "prof.mmu_pct", unit: "%"},
	{name: "prof.hafnium_pct", unit: "%"},
	{name: "prof.kernel_pct", unit: "%"},
	{name: "prof.workload_pct", unit: "%"},
	{name: "prof.serve_pct", unit: "%"},
	{name: "prof.cluster_pct", unit: "%"},
	{name: "prof.crypto_pct", unit: "%"},
	{name: "prof.map_pct", unit: "%"},
	{name: "prof.gc_pct", unit: "%"},
	{name: "prof.other_pct", unit: "%"},
	{name: "prof.cum.construct_pct", unit: "%"},
	{name: "prof.cum.sign_pct", unit: "%"},
	{name: "prof.cum.snapshot_pct", unit: "%"},
	{name: "prof.overhead_pct", unit: "%"},
}

// spanPct maps each timed layer call to the per-layer metric that reports
// its share of the traced units' wall time.
var spanPct = []struct{ kind, metric string }{
	{"core.build", "core.build_pct"},
	{"core.attach", "core.attach_pct"},
	{"core.boot", "core.boot_pct"},
	{"sim.run", "sim.run_pct"},
	{"machine.fork", "machine.fork_pct"},
	{"hafnium.share", "hafnium.share_pct"},
	{"hafnium.reclaim", "hafnium.reclaim_pct"},
	{"hafnium.verify", "hafnium.verify_pct"},
	{"cluster.failover", "cluster.failover_pct"},
	{"cluster.migration", "cluster.migration_pct"},
}
