// Package hafnium models the Hafnium secure partition manager at EL2, as
// integrated with the Kitten LWK in the paper: virtual machines isolated
// by stage-2 translation, a core-local hypercall interface driven by a
// primary scheduling VM, a para-virtual interrupt controller and dedicated
// virtual timer for secondaries, FFA-style memory sharing, and — the
// paper's §III-b extension — a semi-privileged *super-secondary* VM that
// owns device I/O while the primary keeps the CPU cores.
package hafnium

import "fmt"

// VMID identifies a VM. Following Hafnium's convention, the primary VM is
// ID 1; our super-secondary extension hardcodes ID 2 (the paper: "adding
// an additional hardcoded VM ID for the super-secondary"); secondaries
// are 3 and up.
type VMID uint16

// Reserved VM IDs.
const (
	HypervisorID     VMID = 0
	PrimaryID        VMID = 1
	SuperSecondaryID VMID = 2
	FirstSecondaryID VMID = 3
)

// Class is a VM's privilege class.
type Class int

// VM classes.
const (
	// Primary schedules the node: full hypercall API, receives physical
	// interrupts, may run other VMs' VCPUs.
	Primary Class = iota
	// SuperSecondary is the paper's semi-privileged login VM: direct
	// device MMIO access and messaging, but no Run hypercall and no
	// control over CPU cores.
	SuperSecondary
	// Secondary is a fully isolated workload VM.
	Secondary
)

// String names the class as manifests spell it ("primary",
// "super-secondary", "secondary").
func (c Class) String() string {
	switch c {
	case Primary:
		return "primary"
	case SuperSecondary:
		return "super-secondary"
	default:
		return "secondary"
	}
}

// VMState is a VM's lifecycle state.
type VMState int

// VM lifecycle.
const (
	VMConfigured VMState = iota // built from manifest, not started
	VMRunning
	VMStopped
	// VMCrashed marks a VM taken down by guest misbehaviour (guest panic,
	// stage-2 violation, rogue hypercall): its memory grants are revoked,
	// pending virtual interrupts drained, and the per-VM watchdog decides
	// between restart and quarantine.
	VMCrashed
	// VMQuarantined marks a crashed VM whose restart budget is exhausted
	// (or whose manifest requests quarantine on first crash): it is held
	// out of service until a fresh signed image is launched.
	VMQuarantined
	// VMMigrating marks a VM paused for the stop-and-copy phase of a live
	// migration: its VCPUs are ejected but its guest image is preserved.
	// The VM either resumes here (migration aborted) or its image resumes
	// on the destination node and this slot is scrubbed — never both.
	VMMigrating
)

// VMAborted is the historical name for VMCrashed.
const VMAborted = VMCrashed

// String names the lifecycle state ("running", "crashed", ...).
func (s VMState) String() string {
	switch s {
	case VMConfigured:
		return "configured"
	case VMRunning:
		return "running"
	case VMStopped:
		return "stopped"
	case VMCrashed:
		return "crashed"
	case VMQuarantined:
		return "quarantined"
	case VMMigrating:
		return "migrating"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// RestartPolicy selects what the per-VM watchdog does after a crash.
type RestartPolicy int

// Watchdog policies.
const (
	// RestartNever leaves a crashed VM down (the default). Recovery then
	// requires a fresh signed image through the §VII launch path, or
	// quarantine if the manifest asks for it.
	RestartNever RestartPolicy = iota
	// RestartAlways reboots the VM from its manifest image after a
	// sim-time backoff, up to MaxRestarts times.
	RestartAlways
)

// String names the policy as manifests spell it ("restart" or "none").
func (p RestartPolicy) String() string {
	if p == RestartAlways {
		return "restart"
	}
	return "none"
}

// VCPUState tracks one virtual CPU.
type VCPUState int

// VCPU states.
const (
	VCPUStopped VCPUState = iota
	VCPURunnable
	VCPURunning // resident on a physical core
	VCPUBlocked // waiting for an interrupt
)

// String names the VCPU state ("runnable", "running", ...).
func (s VCPUState) String() string {
	switch s {
	case VCPUStopped:
		return "stopped"
	case VCPURunnable:
		return "runnable"
	case VCPURunning:
		return "running"
	default:
		return "blocked"
	}
}

// ExitReason reports why control returned from a VCPU to the primary.
type ExitReason int

// Exit reasons.
const (
	ExitInterrupted ExitReason = iota // a primary-owned physical IRQ preempted the guest
	ExitYield                         // guest relinquished, still runnable
	ExitBlocked                       // guest waits for an interrupt
	ExitStopped                       // VM stopped
	ExitAborted                       // stage-2 abort or guest panic
)

// String names why the VCPU left its core ("yield", "aborted", ...).
func (r ExitReason) String() string {
	switch r {
	case ExitInterrupted:
		return "interrupted"
	case ExitYield:
		return "yield"
	case ExitBlocked:
		return "blocked"
	case ExitStopped:
		return "stopped"
	default:
		return "aborted"
	}
}

// IRQRouting selects how device SPIs reach the super-secondary VM.
type IRQRouting int

// Routing policies (§III-b / §VII).
const (
	// RouteViaPrimary is the paper's current approach: all physical IRQs
	// go to the primary VM, which forwards device IRQs to the
	// super-secondary with an inject hypercall.
	RouteViaPrimary IRQRouting = iota
	// RouteSelective is the paper's future-work approach: timer IRQs to
	// the primary, device IRQs delivered directly to the super-secondary.
	RouteSelective
)

// String names the routing mode ("selective" or "via-primary").
func (r IRQRouting) String() string {
	if r == RouteSelective {
		return "selective"
	}
	return "via-primary"
}

// TLBPolicy selects the stage-2 TLB behaviour on VM switches.
type TLBPolicy int

// TLB policies for the ablation bench.
const (
	// TLBVMIDTagged models VMID-tagged TLBs: no flush on switch, the
	// incoming guest re-faults only what was evicted by capacity.
	TLBVMIDTagged TLBPolicy = iota
	// TLBFlushAll models a full flush on every world switch.
	TLBFlushAll
)

// String names the TLB policy ("flush-all" or "vmid-tagged").
func (p TLBPolicy) String() string {
	if p == TLBFlushAll {
		return "flush-all"
	}
	return "vmid-tagged"
}

// Error sentinels the hypercall layer returns.
var (
	ErrDenied      = fmt.Errorf("hafnium: hypercall denied for this VM class")
	ErrBadVM       = fmt.Errorf("hafnium: no such VM")
	ErrBadVCPU     = fmt.Errorf("hafnium: no such VCPU")
	ErrBusy        = fmt.Errorf("hafnium: mailbox busy")
	ErrEmpty       = fmt.Errorf("hafnium: mailbox empty")
	ErrNotRunning  = fmt.Errorf("hafnium: VM not running")
	ErrNotResident = fmt.Errorf("hafnium: VCPU not resident on a core")
)

// Virtual interrupt numbers injected into guests (beyond pass-through
// timer PPIs). These live in the SGI range of the guest's para-virtual
// interrupt controller.
const (
	VIRQMailbox = 8  // a message arrived in the VM's mailbox
	VIRQKick    = 15 // hypervisor-internal cross-core kick (never seen by guests)
)
