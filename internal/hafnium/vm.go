package hafnium

import (
	"fmt"

	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/metrics"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

// GuestRAMBase is the IPA where every VM sees its RAM start (mirroring
// the physical DRAM base so unmodified guest kernels boot).
const GuestRAMBase uint64 = uint64(machine.DRAMBase)

// shareIPABase is where incoming memory grants are mapped in a receiving
// VM's IPA space, well above RAM.
const shareIPABase uint64 = 0x8000_0000

// GuestOS is a kernel running inside a secondary or super-secondary VM.
// Both callbacks run in guest context on a physical core: the guest may
// start work with vc.Exec and control its virtual timer.
type GuestOS interface {
	// Boot is invoked the first time one of the VM's VCPUs runs.
	Boot(vc *VCPU)
	// HandleVIRQ is invoked for a virtual interrupt (its handler work is
	// what the injection preempted the guest for).
	HandleVIRQ(vc *VCPU, virq int)
}

// PrimaryOS is the scheduling VM's kernel (Kitten in the paper's design,
// Linux in the baseline). Hafnium calls it on the paths where the primary
// takes control.
type PrimaryOS interface {
	// Boot starts the primary after Hafnium finishes partition setup.
	Boot()
	// HandleIRQ handles a physical interrupt routed to the primary; it
	// runs in primary context on c and should Exec its handler work. If a
	// guest was displaced by this interrupt, Hypervisor.Preempted(c)
	// reports which.
	HandleIRQ(c *machine.Core, irq int)
	// VCPUExited is invoked in primary context when a VCPU voluntarily
	// leaves a core (yield/block/stop/abort). The primary may immediately
	// schedule new work on c.
	VCPUExited(c *machine.Core, vc *VCPU, reason ExitReason)
	// VCPUReady notes that a blocked VCPU became runnable (bookkeeping
	// only; may be called from any context).
	VCPUReady(vc *VCPU)
	// CoreIdle is invoked when a core in primary context runs out of work.
	CoreIdle(c *machine.Core)
	// EvictionPages estimates how many guest TLB entries one primary
	// activation (tick handling, kthreads) evicts — the knob behind the
	// paper's "increased TLB pressure" observation for Linux.
	EvictionPages() int
}

// Message is one mailbox entry. A received Payload is the receiving VM's
// receive buffer: it stays valid until the VM's next message arrives, so
// a receiver that keeps the bytes longer copies them.
type Message struct {
	From    VMID
	Payload []byte
}

// VM is one Hafnium partition.
type VM struct {
	id     VMID
	spec   VMSpec
	hyp    *Hypervisor
	stage2 *mmu.Table
	vcpus  []*VCPU
	state  VMState
	guest  GuestOS
	// controller is the VM whose job control may stop and restart this
	// one: the super-secondary unless the VM was handed to the primary
	// before boot (Hypervisor.HandToPrimary).
	controller VMID

	ramPA   mem.PA // backing block base
	ramSize uint64

	nextShareIPA uint64
	// mailbox is the VM's one-slot mailbox, valid while mailboxFull. Its
	// payload is rx, the VM's receive buffer (Hafnium's RX page): every
	// send to the VM copies into it, so a received payload stays valid
	// until the VM's next message.
	mailbox     Message
	mailboxFull bool
	rx          []byte

	mmio []mem.Region // device windows mapped into this VM

	restarts    int    // watchdog restarts performed so far
	crashReason string // why the VM last crashed ("" if never)

	// Warm restart image, captured at Boot for VMs with
	// restart_from_snapshot: a copy-on-write freeze of the pristine
	// stage-2 table plus the share-window cursor. Recovery rewinds the
	// live table to this instead of rebuilding it cold.
	warmS2       sim.State
	warmShareIPA uint64

	// Hot-path registry counters, cached at build time.
	mWorldSwitches *metrics.Counter
	mSwitchCostPS  *metrics.Counter
	mInjections    *metrics.Counter
	mStage2Faults  *metrics.Counter
	mRuns          *metrics.Counter
	// Hot-path counters cached on first use instead: these series appear
	// in a snapshot only once the VM has made that call (a pre-registered
	// zero series would change the snapshot).
	mHypercalls [numHypercalls]*metrics.Counter
	mForwards   *metrics.Counter
}

// ID reports the VM's identifier.
func (v *VM) ID() VMID { return v.id }

// Name reports the manifest name.
func (v *VM) Name() string { return v.spec.Name }

// Class reports the privilege class.
func (v *VM) Class() Class { return v.spec.Class }

// State reports the lifecycle state.
func (v *VM) State() VMState { return v.state }

// Controller reports the VM whose job control may stop and restart this
// one.
func (v *VM) Controller() VMID { return v.controller }

// Restarts reports how many times the watchdog has restarted the VM.
func (v *VM) Restarts() int { return v.restarts }

// CrashReason reports why the VM last crashed, or "" if it never did.
func (v *VM) CrashReason() string { return v.crashReason }

// Spec returns the manifest entry the VM was built from.
func (v *VM) Spec() VMSpec { return v.spec }

// Node returns the machine the VM's hypervisor runs on.
func (v *VM) Node() *machine.Node { return v.hyp.node }

// CachedMetric returns the VM-labelled counter guest.<name> from the node
// registry through a caller-owned cache slot: guest kernels use it to
// publish their own activity (ticks, device IRQs) under this VM's label.
// The series is registered on first use and *slot serves every later
// call (metrics.Registry.CachedCounter). The slot belongs to this VM; a
// caller that serves several VMs keeps one per VM.
func (v *VM) CachedMetric(slot **metrics.Counter, name string) *metrics.Counter {
	return v.counter(slot, "guest", name)
}

// counter returns the VM-labelled counter sub.name through the cache
// slot. It reads the slot before anything else: the four-word key is
// built, and copied through the stack, only on the miss that registers
// the series.
func (v *VM) counter(slot **metrics.Counter, sub, name string) *metrics.Counter {
	if c := *slot; c != nil {
		return c
	}
	return v.registerCounter(slot, sub, name)
}

// registerCounter is counter's miss: it registers sub.name under this
// VM's label and fills the slot (metrics.Registry.CachedCounter).
func (v *VM) registerCounter(slot **metrics.Counter, sub, name string) *metrics.Counter {
	return v.hyp.node.Metrics.CachedCounter(slot, metrics.K(sub, name).WithVM(v.spec.Name))
}

// VCPU returns the i'th virtual CPU.
func (v *VM) VCPU(i int) *VCPU {
	if i < 0 || i >= len(v.vcpus) {
		return nil
	}
	return v.vcpus[i]
}

// VCPUs reports the VCPU count.
func (v *VM) VCPUs() int { return len(v.vcpus) }

// Stage2 exposes the VM's stage-2 table (hypervisor-side tests and the
// isolation property suite use it; guests never see it).
func (v *VM) Stage2() *mmu.Table { return v.stage2 }

// RAM reports the guest-physical RAM window [GuestRAMBase, +size).
func (v *VM) RAM() (ipaBase uint64, size uint64) { return GuestRAMBase, v.ramSize }

// clearMailbox empties the VM's mailbox slot; the receive buffer stays.
func (v *VM) clearMailbox() { v.mailbox, v.mailboxFull = Message{}, false }

// deliver fills the VM's mailbox with a message from from, copying the
// payload into the receive buffer: the sender may reuse its own buffer as
// soon as the send returns.
func (v *VM) deliver(from VMID, payload []byte) {
	v.rx = append(v.rx[:0], payload...)
	v.mailbox = Message{From: from, Payload: v.rx}
	v.mailboxFull = true
}

// MMIO returns the device windows this VM may touch.
func (v *VM) MMIO() []mem.Region {
	out := make([]mem.Region, len(v.mmio))
	copy(out, v.mmio)
	return out
}

// TranslateIPA runs the VM's stage-2 translation for an IPA access with
// the given permissions, enforcing isolation exactly as hardware would.
func (v *VM) TranslateIPA(ipa uint64, want mmu.Perms) (mem.PA, error) {
	pa, perms, _, ok := v.stage2.Translate(ipa)
	if !ok {
		v.mStage2Faults.Inc()
		return 0, fmt.Errorf("hafnium: vm %d stage-2 abort at IPA %#x", v.id, ipa)
	}
	if !perms.Allows(want) {
		v.mStage2Faults.Inc()
		return 0, fmt.Errorf("hafnium: vm %d stage-2 permission fault at IPA %#x (%v, want %v)",
			v.id, ipa, perms, want)
	}
	return mem.PA(pa), nil
}

func (h *Hypervisor) buildVM(id VMID, spec VMSpec) (*VM, error) {
	v := &VM{
		id:           id,
		spec:         spec,
		hyp:          h,
		stage2:       mmu.NewTable(fmt.Sprintf("s2.%s", spec.Name)),
		nextShareIPA: shareIPABase,
		controller:   SuperSecondaryID,
	}
	mx := h.node.Metrics
	v.mWorldSwitches = mx.Counter(metrics.K("el2", "world_switches").WithVM(spec.Name))
	v.mSwitchCostPS = mx.Counter(metrics.K("el2", "world_switch_ps").WithVM(spec.Name))
	v.mInjections = mx.Counter(metrics.K("el2", "virq_injections").WithVM(spec.Name))
	v.mStage2Faults = mx.Counter(metrics.K("el2", "stage2_faults").WithVM(spec.Name))
	v.mRuns = mx.Counter(metrics.K("el2", "runs").WithVM(spec.Name))
	// Allocate and map guest RAM. Secure VMs draw from the TrustZone
	// carve-out; everyone else from non-secure DRAM.
	alloc := h.nsAlloc
	if spec.Secure {
		if h.sAlloc == nil {
			return nil, fmt.Errorf("hafnium: VM %q is secure but no secure partition is configured", spec.Name)
		}
		alloc = h.sAlloc
	}
	size := uint64(spec.MemMB) << 20
	pa, err := alloc.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("hafnium: VM %q memory: %w", spec.Name, err)
	}
	v.ramPA = pa
	v.ramSize = size
	if err := v.stage2.Map(GuestRAMBase, uint64(pa), size, mmu.PermRWX); err != nil {
		return nil, fmt.Errorf("hafnium: VM %q stage-2: %w", spec.Name, err)
	}
	h.owner.assign(pa, pa+mem.PA(size), id)
	for i := 0; i < spec.VCPUs; i++ {
		v.vcpus = append(v.vcpus, newVCPU(v, i))
	}
	return v, nil
}

// mapMMIO grants the VM a device window (stage-2 device mapping).
func (v *VM) mapMMIO(r mem.Region) error {
	if err := v.stage2.Map(uint64(r.Base), uint64(r.Base), r.Size, mmu.PermRW); err != nil {
		return err
	}
	v.mmio = append(v.mmio, r)
	return nil
}
