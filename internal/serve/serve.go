// Package serve is the multi-tenant ephemeral-VM serving workload: an
// open-loop, seed-driven arrival process of short-lived lambda-style
// jobs running on the paper's secure-node stack. Each job is admitted
// through the super-secondary login VM (a forwarded device interrupt,
// then the mailbox job-control channel to the primary), dispatched by a
// pool manager running in the primary kernel to one of a pool of
// secondary environment VMs, executed inside the environment's guest
// kernel, and completed back over the mailbox.
//
// Environments follow the two-phase "prepare once, execute many" shape
// production TEE serving uses: a stopped environment pays a one-time
// prepare — a warm stage-2 rewind to the boot-time copy-on-write
// snapshot while the warm-pool budget lasts, a full cold rebuild
// otherwise (hafnium.RecycleVM / PrepareCost) — and then serves jobs
// back to back with only mailbox and world-switch costs in between. A
// TTL reaper tears idle environments back down, and environments killed
// by fault injection are revived by the existing watchdog path and
// reintegrated into the pool (crash-replace), with the in-flight job
// replayed. Every pool transition — environment boot, crash-replace
// reintegration, reap — is signed with the node's tz.Signer identity and
// appended to the attestation ledger.
//
// Everything is deterministic: the same seed reproduces the arrival
// process, the demand sequence, the fault schedule, and therefore the
// whole latency distribution byte for byte (the obscheck gate compares
// two same-seed artifacts).
package serve

import (
	"fmt"

	"khsim/internal/sim"
	"khsim/internal/workload"
)

// AdmitVIRQ is the device interrupt line the arrival process raises into
// the login VM — the simulated NIC queue doorbell jobs arrive on. It is
// an ordinary SPI-range virq, distinct from the hypervisor's own lines.
const AdmitVIRQ = 48

// Config parameterizes one serving run on one node. ParseManifest fills
// it from a [serve] manifest section; zero values take defaults.
type Config struct {
	// Run is how long the arrival process generates jobs.
	Run sim.Duration
	// Drain is the grace window after arrivals stop during which
	// in-flight jobs may still complete.
	Drain sim.Duration
	// TTL is the idle time after which the reaper tears an environment
	// down. An environment reused at exactly its expiry instant is
	// reaped first: the reap was armed when the environment went idle,
	// so at a tie it fires before any same-instant dispatch (reap wins
	// ties).
	TTL sim.Duration
	// WarmPool is the warm-image budget: the maximum number of
	// concurrently live warm-prepared environments. Prepares beyond it
	// fall back to cold boots until a reap or crash frees a slot.
	WarmPool int
	// RetryBackoff is the in-guest backoff before a busy primary mailbox
	// is retried (admission and completion paths).
	RetryBackoff sim.Duration
	// Mix is the per-job CPU demand distribution.
	Mix workload.LambdaMix
	// CrashMean, when positive, is the mean interval of injected
	// environment-VM crashes (the crash-replace policy's test load).
	CrashMean sim.Duration
	// Rates are the arrival rates (jobs/second) the sweep runs.
	Rates []float64
	// LoginVM names the super-secondary admission VM in the node plan.
	LoginVM string
	// EnvVMs names the secondary environment VMs, in manifest order.
	EnvVMs []string
	// NodePlan is the embedded Hafnium partition manifest text.
	NodePlan string
}

// DefaultConfig returns the built-in serving parameters (the shipped
// manifests/serving.manifest mirrors these).
func DefaultConfig() Config {
	return Config{
		Run:          sim.FromSeconds(0.4),
		Drain:        sim.FromSeconds(0.2),
		TTL:          sim.FromSeconds(0.05),
		WarmPool:     2,
		RetryBackoff: sim.FromMicros(20),
		Mix:          workload.DefaultLambdaMix(),
		Rates:        []float64{50, 500, 2000, 8000},
		LoginVM:      "login",
	}
}

// EnvState is one environment VM's position in the reuse state machine.
type EnvState int

// Environment states. Stopped environments pay a prepare before the next
// job; Ready ones serve it immediately; Crashed ones belong to the
// watchdog until its restart reintegrates them; Dead ones were
// quarantined and never return.
const (
	EnvStopped EnvState = iota
	EnvPreparing
	EnvReady
	EnvBusy
	EnvCrashed
	EnvDead
)

// String renders the state for reports.
func (s EnvState) String() string {
	switch s {
	case EnvStopped:
		return "stopped"
	case EnvPreparing:
		return "preparing"
	case EnvReady:
		return "ready"
	case EnvBusy:
		return "busy"
	case EnvCrashed:
		return "crashed"
	case EnvDead:
		return "dead"
	}
	return fmt.Sprintf("EnvState(%d)", int(s))
}

// Job is one serving request's lifecycle record.
type Job struct {
	// ID indexes the job in arrival order.
	ID int
	// Arrive is when the open-loop process generated the job.
	Arrive sim.Time
	// Demand is the CPU time the job charges inside its environment.
	Demand sim.Duration
	// AdmitAt is when the login VM's admission message reached the
	// primary's mailbox.
	AdmitAt sim.Time
	// DispatchAt is when the pool handed the job to an environment.
	DispatchAt sim.Time
	// DoneAt is when the completion message reached the primary; zero
	// while in flight.
	DoneAt sim.Time
	// Env is the index of the environment that completed the job (-1
	// while unassigned).
	Env int
	// Replays counts crash-replace re-dispatches of this job.
	Replays int
}

// Latency is the job's admission-to-completion latency (valid once
// DoneAt is set).
func (j *Job) Latency() sim.Duration { return j.DoneAt.Sub(j.Arrive) }
