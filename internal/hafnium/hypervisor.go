package hafnium

import (
	"fmt"

	"khsim/internal/gic"
	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/metrics"
	"khsim/internal/sim"
	"khsim/internal/timer"
	"khsim/internal/tz"
)

// Stats counts hypervisor activity for the evaluation harness.
type Stats struct {
	Traps         uint64 // EL2 entries from physical interrupts
	WorldSwitches uint64 // guest→primary and primary→guest transitions
	Runs          uint64 // RunVCPU hypercalls
	Injections    uint64 // virtual interrupts delivered to guests
	Forwards      uint64 // device IRQs forwarded to the super-secondary
	Kicks         uint64 // cross-core SGI kicks
	Messages      uint64 // mailbox sends
	Notifications uint64 // doorbell notifications
	Aborts        uint64 // VM crashes contained (every abort path)
	Restarts      uint64 // watchdog restarts of crashed VMs
	Quarantines   uint64 // VMs taken out of service after crashing
	ScrubbedPages uint64 // pages scrubbed during grant revocation and restart
	BadHypercalls uint64 // guest API misuse answered with a contained crash
	// SnapshotRestores counts watchdog restarts served from the boot-time
	// warm stage-2 snapshot instead of a cold table rebuild.
	SnapshotRestores uint64
	// MigratedOut counts VMs whose live migration off this node committed
	// (image released and scrubbed here, resumed elsewhere).
	MigratedOut uint64
	// MigratedIn counts migrated VM images admitted and resumed here.
	MigratedIn uint64
	// MigrationAborts counts migrations rolled back to this (source) node
	// after a failed transfer.
	MigrationAborts uint64
	// RecyclesWarm counts stopped VMs recycled by rewinding the live
	// stage-2 table to the boot-time warm snapshot (serving-pool reuse).
	RecyclesWarm uint64
	// RecyclesCold counts stopped VMs recycled with a full cold stage-2
	// rebuild (no warm image, or the caller declined the warm path).
	RecyclesCold uint64
}

// Hypervisor is the EL2 secure partition manager instance for one node.
type Hypervisor struct {
	node     *machine.Node
	monitor  *tz.Monitor
	manifest *Manifest

	// vms is indexed by VMID: IDs are small and dense (primary 1,
	// super-secondary 2, then sequential from FirstSecondaryID), and
	// only New assigns them. An ID no VM holds maps to nil.
	vms     []*VM
	order   []VMID
	primary *VM
	super   *VM

	primaryOS PrimaryOS

	cur       []*VCPU        // per core; nil = primary context
	preempted []*VCPU        // per core: guest displaced by the last primary IRQ
	enteredAt []sim.Time     // per core: when the resident guest took the core
	vmCPU     []sim.Duration // accumulated guest CPU time, indexed by VMID like vms

	owner ownerTable
	// shares holds the active grants by ID; granted indexes them by
	// frame run. Both change only through addGrant and dropGrant, and
	// Restore refills them. A grant is immutable once stored, so
	// snapshots share the pointers.
	shares      map[uint64]*Grant
	granted     grantIndex
	nextShareID uint64

	nsAlloc *mem.Buddy
	sAlloc  *mem.Buddy

	routing   IRQRouting
	tlbPolicy TLBPolicy
	booted    bool

	// onLifecycle, when set, observes crash/restart/quarantine transitions
	// (see SetLifecycleHook).
	onLifecycle func(LifecycleEvent)

	stats Stats

	// Cached hot-path registry counters (per physical core / global);
	// per-VM counters live on the VM structs.
	mTraps []*metrics.Counter
	mKicks *metrics.Counter

	// deliverFn hands a physical IRQ to the primary at the end of an EL2
	// trap or world switch. It is bound once, like each VCPU's EL2
	// completions, so the per-interrupt paths build no closure.
	deliverFn func(c *machine.Core, irq int)
	// sgiSelfFn is msgSend's deferred mailbox SGI, bound once.
	sgiSelfFn func()
}

// metric returns the VM-labelled el2 counter for name (cold paths; hot
// paths cache their counters on the VM).
func (h *Hypervisor) metric(name string, vm *VM) *metrics.Counter {
	return h.node.Metrics.Counter(metrics.K("el2", name).WithVM(vm.spec.Name))
}

// hcKind is a hypercall's ABI function. It indexes each VM's cached
// el2.hypercall.<fn> counters.
type hcKind uint8

// The hypercall functions counted per VM.
const (
	hcExit hcKind = iota
	hcRun
	hcMsgSend
	hcMsgRecv
	hcMemShare
	hcMemLend
	hcMemDonate
	hcMemReclaim
	hcNotify
	numHypercalls
)

// hcNames are the el2 counter names of the hypercall kinds.
var hcNames = [numHypercalls]string{
	hcExit:       "hypercall.exit",
	hcRun:        "hypercall.run",
	hcMsgSend:    "hypercall.msg_send",
	hcMsgRecv:    "hypercall.msg_recv",
	hcMemShare:   "hypercall.mem_share",
	hcMemLend:    "hypercall.mem_lend",
	hcMemDonate:  "hypercall.mem_donate",
	hcMemReclaim: "hypercall.mem_reclaim",
	hcNotify:     "hypercall.notify",
}

// hypercall counts one ABI invocation, attributed to the VM it concerns.
// The counter is registered on the VM's first call of that kind and
// cached on the VM from then on.
func (h *Hypervisor) hypercall(kind hcKind, vm *VM) {
	vm.counter(&vm.mHypercalls[kind], "el2", hcNames[kind]).Inc()
}

// worldSwitch accounts one world switch for vm with the EL2 cycle cost
// charged for it (entry/exit trap plus context switch, and for RunVCPU
// the TLB refill transient).
func (h *Hypervisor) worldSwitch(vm *VM, cost sim.Duration) {
	h.stats.WorldSwitches++
	vm.mWorldSwitches.Inc()
	vm.mSwitchCostPS.Add(uint64(cost))
}

// hypReservedMB is DRAM held back for Hafnium itself (text, per-VM
// metadata, page-table pool).
const hypReservedMB = 16

// New builds the hypervisor from a validated manifest over the node.
// A TrustZone monitor is optional; it is required only when the manifest
// declares secure VMs, and a secure carve-out sized to fit them is
// configured before Freeze.
func New(node *machine.Node, m *Manifest, monitor *tz.Monitor) (*Hypervisor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	h := &Hypervisor{
		node:      node,
		monitor:   monitor,
		manifest:  m,
		cur:       make([]*VCPU, len(node.Cores)),
		preempted: make([]*VCPU, len(node.Cores)),
		enteredAt: make([]sim.Time, len(node.Cores)),
		shares:    make(map[uint64]*Grant),
		routing:   m.Routing,
		tlbPolicy: m.TLB,
	}
	h.deliverFn = h.deliverIRQ
	h.sgiSelfFn = h.sgiSelf
	for i := range node.Cores {
		h.mTraps = append(h.mTraps, node.Metrics.Counter(metrics.K("el2", "traps").WithCore(i)))
	}
	h.mKicks = node.Metrics.Counter(metrics.K("el2", "kicks"))
	dram, ok := node.Mem.FindName("dram")
	if !ok {
		return nil, fmt.Errorf("hafnium: node has no DRAM region")
	}
	// Carve the secure world first (static boot-time partitioning), then
	// build the non-secure allocator over what remains.
	var secureBytes uint64
	for _, spec := range m.VMs {
		if spec.Secure {
			secureBytes += uint64(spec.MemMB) << 20
		}
	}
	nsBase := dram.Base + mem.PA(uint64(hypReservedMB)<<20)
	nsSize := dram.Size - uint64(hypReservedMB)<<20 - secureBytes
	if secureBytes > 0 {
		if monitor == nil {
			return nil, fmt.Errorf("hafnium: manifest has secure VMs but no TrustZone monitor")
		}
		sBase := dram.Base + mem.PA(dram.Size-secureBytes)
		if err := monitor.AddSecureRegion("hafnium-secure", sBase, secureBytes); err != nil {
			return nil, err
		}
		sa, err := mem.NewBuddy(sBase, secureBytes)
		if err != nil {
			return nil, err
		}
		h.sAlloc = sa
	}
	na, err := mem.NewBuddy(nsBase, nsSize)
	if err != nil {
		return nil, err
	}
	h.nsAlloc = na
	if monitor != nil {
		monitor.Freeze()
	}

	// Assign IDs: primary = 1, super-secondary = 2, secondaries from 3.
	next := FirstSecondaryID
	for _, spec := range m.VMs {
		var id VMID
		switch spec.Class {
		case Primary:
			id = PrimaryID
		case SuperSecondary:
			id = SuperSecondaryID
		default:
			id = next
			next++
		}
		vm, err := h.buildVM(id, spec)
		if err != nil {
			return nil, err
		}
		for int(id) >= len(h.vms) {
			h.vms = append(h.vms, nil)
		}
		h.vms[id] = vm
		h.order = append(h.order, id)
		switch spec.Class {
		case Primary:
			h.primary = vm
		case SuperSecondary:
			h.super = vm
		}
	}
	h.vmCPU = make([]sim.Duration, len(h.vms))
	// Device I/O: Hafnium maps all MMIO to the primary by default; with a
	// super-secondary configured, the windows go there instead (§III-b) —
	// except the GIC, which EL2 keeps virtualized for everyone.
	ioVM := h.primary
	if h.super != nil {
		ioVM = h.super
	}
	for _, r := range node.Mem.Regions() {
		if !r.Attr.Device || r.Name == "gic" {
			continue
		}
		if err := ioVM.mapMMIO(r); err != nil {
			return nil, err
		}
	}
	node.RegisterSnapshotter("hafnium", h)
	return h, nil
}

// Node returns the underlying machine.
func (h *Hypervisor) Node() *machine.Node { return h.node }

// Stats returns a snapshot of the counters.
func (h *Hypervisor) Stats() Stats { return h.stats }

// Manifest returns the boot manifest.
func (h *Hypervisor) Manifest() *Manifest { return h.manifest }

// VM looks up a partition by ID.
func (h *Hypervisor) VM(id VMID) (*VM, bool) {
	if int(id) < len(h.vms) {
		if v := h.vms[id]; v != nil {
			return v, true
		}
	}
	return nil, false
}

// VMByName looks up a partition by manifest name.
func (h *Hypervisor) VMByName(name string) (*VM, bool) {
	for _, id := range h.order {
		if h.vms[id].spec.Name == name {
			return h.vms[id], true
		}
	}
	return nil, false
}

// VMs returns all partitions in manifest order.
func (h *Hypervisor) VMs() []*VM {
	out := make([]*VM, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.vms[id])
	}
	return out
}

// Primary returns the primary VM.
func (h *Hypervisor) Primary() *VM { return h.primary }

// Super returns the super-secondary VM, or nil.
func (h *Hypervisor) Super() *VM { return h.super }

// AttachPrimary installs the scheduling kernel.
func (h *Hypervisor) AttachPrimary(os PrimaryOS) { h.primaryOS = os }

// AttachGuest installs a guest kernel in a secondary or super-secondary VM.
func (h *Hypervisor) AttachGuest(id VMID, g GuestOS) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.spec.Class == Primary {
		return fmt.Errorf("hafnium: primary VM does not take a GuestOS")
	}
	vm.guest = g
	return nil
}

// HandToPrimary makes the primary VM id's controller, for a VM whose
// lifecycle a manager in the primary owns: the super-secondary's job
// control can then no longer stop or start it. Only a non-primary VM is
// handed over, and only before Boot, so a controller never changes while
// the node runs.
func (h *Hypervisor) HandToPrimary(id VMID) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.spec.Class == Primary || h.booted {
		return fmt.Errorf("hafnium: cannot hand VM %q to the primary", vm.spec.Name)
	}
	vm.controller = PrimaryID
	return nil
}

// Boot finalizes setup: installs the EL2 trap dispatcher on every core,
// enables the interrupt sources EL2 owns, marks VMs runnable, and starts
// the primary kernel.
func (h *Hypervisor) Boot() error {
	if h.primaryOS == nil {
		return fmt.Errorf("hafnium: Boot before AttachPrimary")
	}
	for _, id := range h.order {
		vm := h.vms[id]
		if vm.spec.Class != Primary && vm.guest == nil {
			return fmt.Errorf("hafnium: VM %q has no guest kernel attached", vm.spec.Name)
		}
	}
	d := h.node.GIC
	for _, irq := range []int{gic.IRQPhysTimer, gic.IRQVirtualTimer, gic.IRQHypTimer} {
		if err := d.Enable(irq); err != nil {
			return err
		}
	}
	// Timer interrupts outrank everything; the kick SGI and mailbox SGI
	// are ordinary priority.
	d.SetPriority(gic.IRQPhysTimer, 0x20)
	d.SetPriority(gic.IRQVirtualTimer, 0x20)
	if err := d.Enable(VIRQKick); err != nil {
		return err
	}
	if err := d.Enable(VIRQMailbox); err != nil {
		return err
	}
	if err := d.Enable(VIRQNotification); err != nil {
		return err
	}
	for _, c := range h.node.Cores {
		c.SetDispatcher(h.trap)
		c.SetOnIdle(h.coreIdle)
	}
	for _, id := range h.order {
		vm := h.vms[id]
		if vm.spec.Standby {
			// Standby slot: built and mapped, but held stopped until a
			// live-migration AdmitVM starts it.
			vm.state = VMStopped
			continue
		}
		vm.state = VMRunning
		for _, vc := range vm.vcpus {
			if vm.spec.Class != Primary {
				vc.state = VCPURunnable
			}
		}
		if vm.spec.RestartFromSnapshot {
			// Warm restart image: freeze the pristine stage-2 table (O(1),
			// copy-on-write) so the watchdog can rewind to it instead of
			// rebuilding the table cold.
			vm.warmS2 = vm.stage2.Snapshot()
			vm.warmShareIPA = vm.nextShareIPA
		}
	}
	h.booted = true
	h.primaryOS.Boot()
	return nil
}

// Preempted reports (and clears) the guest VCPU displaced by the most
// recent primary-bound interrupt on core c. The primary's scheduler uses
// it to decide whether to resume the guest after handling a tick.
func (h *Hypervisor) Preempted(c *machine.Core) *VCPU {
	vc := h.preempted[c.ID()]
	h.preempted[c.ID()] = nil
	return vc
}

// Resident reports the guest VCPU currently occupying core, or nil when
// the core is in primary context.
func (h *Hypervisor) Resident(core int) *VCPU { return h.cur[core] }

// trap is the EL2 interrupt entry installed on every physical core.
func (h *Hypervisor) trap(c *machine.Core) {
	id := c.ID()
	irq := h.node.GIC.Acknowledge(id)
	if irq == gic.SpuriousIRQ {
		return
	}
	h.node.GIC.EOI(id, irq)
	h.stats.Traps++
	h.mTraps[id].Inc()
	cur := h.cur[id]
	costs := &h.node.Costs

	if cur == nil {
		// Primary context. All physical IRQs here belong to the primary
		// (EL2 still interposes: charge the trap before delivery).
		c.ExecBound("el2.trap", costs.HypTrap, true, h.deliverFn, irq)
		return
	}

	// Guest resident on this core.
	switch {
	case irq == timer.Virt.PPI():
		// The guest's own virtual timer: injected directly, no primary
		// involvement — the low-overhead path the paper's design buys.
		cur.vtArmed = false
		h.inject(c, cur, gic.IRQVirtualTimer)
	case irq == VIRQKick:
		h.handleKick(c, cur)
	case h.routing == RouteSelective && h.super != nil && cur.vm == h.super && gic.ClassOf(irq) == gic.SPI:
		// Future-work selective routing: a device IRQ lands while the
		// super-secondary is resident — deliver without a world switch.
		h.inject(c, cur, irq)
	default:
		// Primary-owned interrupt (its tick timer, a device IRQ to
		// forward, a mailbox SGI): world switch out to the primary.
		h.switchOut(c, cur, irq)
	}
}

// deliverIRQ is deliverFn: the primary's interrupt handler runs once the
// EL2 work charged for the trap or world switch is done.
func (h *Hypervisor) deliverIRQ(c *machine.Core, irq int) { h.primaryOS.HandleIRQ(c, irq) }

// inject delivers a virtual interrupt to the resident guest: EL2 entry
// plus list-register traffic, then the guest's handler in guest context.
func (h *Hypervisor) inject(c *machine.Core, vc *VCPU, virq int) {
	h.stats.Injections++
	vc.vm.mInjections.Inc()
	costs := &h.node.Costs
	c.ExecBound("el2.inject", costs.HypTrap+costs.IRQDeliverGIC, true, vc.injectFn, virq)
}

// injectDone is a VCPU's injectFn: the guest's handler for virq.
func (vc *VCPU) injectDone(c *machine.Core, virq int) { vc.vm.guest.HandleVIRQ(vc, virq) }

// handleKick processes a cross-core SGI sent to this core: deliver any
// pending virtual interrupts, or force an exit if the VM was stopped or
// crashed underneath its resident VCPU.
func (h *Hypervisor) handleKick(c *machine.Core, vc *VCPU) {
	if vc.vm.state != VMRunning {
		h.forceExit(c, vc, deadExitReason(vc.vm.state))
		return
	}
	h.drainPending(c, vc)
}

// deadExitReason maps a non-running VM state to the exit reason its
// ejected VCPUs report.
func deadExitReason(s VMState) ExitReason {
	if s == VMCrashed || s == VMQuarantined {
		return ExitAborted
	}
	return ExitStopped
}

// drainPending injects all queued virtual interrupts into the resident
// guest, one handler frame each.
func (h *Hypervisor) drainPending(c *machine.Core, vc *VCPU) {
	if len(vc.pending) == 0 {
		return
	}
	virq := vc.pending[0]
	// Shift rather than reslice, so the queue keeps its front capacity
	// and pendVIRQ's append never has to grow it again.
	vc.pending = vc.pending[:copy(vc.pending, vc.pending[1:])]
	h.stats.Injections++
	vc.vm.mInjections.Inc()
	costs := &h.node.Costs
	c.ExecBound("el2.inject", costs.HypTrap+costs.IRQDeliverGIC, true, vc.drainFn, virq)
}

// drainDone is a VCPU's drainFn: the guest's handler for virq, then the
// next pending injection chained after this handler's work.
func (vc *VCPU) drainDone(c *machine.Core, virq int) {
	vc.vm.guest.HandleVIRQ(vc, virq)
	if len(vc.pending) > 0 && vc.core == c.ID() {
		c.CallHandler(vc.drainHandler)
	}
}

// drainNext is a VCPU's drainHandler: drainPending run as an interrupt
// handler on the core.
func (vc *VCPU) drainNext(c *machine.Core) { vc.vm.hyp.drainPending(c, vc) }

// switchOut performs the guest→primary world switch for interrupt irq.
func (h *Hypervisor) switchOut(c *machine.Core, vc *VCPU, irq int) {
	id := c.ID()
	vc.saved = c.StealAllSuspended(vc.saved[:0]) // empty if the guest was between activities
	vc.state = VCPURunnable
	vc.core = -1
	h.accountCPU(id, vc)
	h.parkVTimer(vc, id)
	h.cur[id] = nil
	h.preempted[id] = vc
	costs := &h.node.Costs
	h.worldSwitch(vc.vm, costs.HypTrap+costs.WorldSwitch)
	if h.tlbPolicy == TLBFlushAll {
		c.InvalidateTLB()
	}
	c.ExecBound("el2.worldswitch", costs.HypTrap+costs.WorldSwitch, true, h.deliverFn, irq)
}

// forceExit ejects a guest whose VM stopped (kick path).
func (h *Hypervisor) forceExit(c *machine.Core, vc *VCPU, reason ExitReason) {
	id := c.ID()
	// Discard in-flight work: the VM is gone.
	c.StealAllSuspended(nil)
	vc.saved = nil
	vc.state = VCPUStopped
	vc.core = -1
	h.accountCPU(id, vc)
	vc.CancelVTimer()
	h.cur[id] = nil
	costs := &h.node.Costs
	h.worldSwitch(vc.vm, costs.HypTrap+costs.WorldSwitch)
	c.ExecBound("el2.worldswitch", costs.HypTrap+costs.WorldSwitch, true, vc.exitFn, int(reason))
}

// guestExit handles voluntary exits (yield/block) from guest context.
// Misuse — exiting with suspended guest work, or an exit reason the
// hypercall interface does not define — is guest-attributable and crashes
// the offending VM rather than the simulator.
func (h *Hypervisor) guestExit(vc *VCPU, reason ExitReason) {
	c := vc.resident()
	if c == nil {
		return
	}
	id := c.ID()
	if vm := vc.vm; vm.state != VMRunning {
		// The VM stopped or crashed underneath this VCPU (StopVM from the
		// control task, a sibling abort on another core) and the exit
		// raced the eviction kick: eject it now.
		h.forceExit(c, vc, deadExitReason(vm.state))
		return
	}
	if c.Depth() != 0 {
		h.stats.BadHypercalls++
		h.abortFromGuest(vc, fmt.Sprintf("exit with suspended guest work %v", c.StackLabels()))
		return
	}
	switch reason {
	case ExitYield:
		vc.state = VCPURunnable
	case ExitBlocked:
		if len(vc.pending) > 0 {
			// FFA semantics: waiting with interrupts pending returns
			// immediately — report a yield so the primary requeues the
			// VCPU and the pending virq is delivered on the next entry.
			// Without this, a doorbell racing the block is lost forever.
			reason = ExitYield
			vc.state = VCPURunnable
		} else {
			vc.state = VCPUBlocked
		}
	default:
		h.stats.BadHypercalls++
		h.abortFromGuest(vc, fmt.Sprintf("invalid exit reason %d", int(reason)))
		return
	}
	vc.saved = vc.saved[:0] // a voluntary exit leaves no frames; keep the buffer
	vc.core = -1
	h.accountCPU(id, vc)
	h.parkVTimer(vc, id)
	h.cur[id] = nil
	costs := &h.node.Costs
	h.hypercall(hcExit, vc.vm)
	h.worldSwitch(vc.vm, costs.HypTrap+costs.WorldSwitch)
	c.ExecBound("el2.exit", costs.HypTrap+costs.WorldSwitch, true, vc.exitFn, int(reason))
}

// exitDone is a VCPU's exitFn: the primary learns the VCPU left its core
// for reason, an ExitReason.
func (vc *VCPU) exitDone(c *machine.Core, reason int) {
	vc.vm.hyp.primaryOS.VCPUExited(c, vc, ExitReason(reason))
}

// guestAbort marks the whole VM crashed and exits to the primary. It
// also tolerates being reported from a descheduled context (the VM still
// dies, without a world switch).
func (h *Hypervisor) guestAbort(vc *VCPU) {
	reason := "guest abort (" + vc.String() + ")"
	if vc.core < 0 {
		h.crashVM(vc.vm, reason)
		return
	}
	h.abortFromGuest(vc, reason)
}

// coreIdle fires when a core runs out of work. In guest context that
// means the guest stopped scheduling anything — treat as an implicit
// block; in primary context, hand the core to the primary's idle loop.
func (h *Hypervisor) coreIdle(c *machine.Core) {
	if !h.booted {
		return
	}
	if vc := h.cur[c.ID()]; vc != nil {
		h.guestExit(vc, ExitBlocked)
		return
	}
	h.primaryOS.CoreIdle(c)
}

// RunVCPU is the primary's core-local scheduling hypercall: world switch
// core c into vc. Must be called from primary context on c (the paper's
// §II-a: "it is not possible for Linux to invoke a VM context switch on
// another core than the one it is executing the hypercall from").
func (h *Hypervisor) RunVCPU(c *machine.Core, vc *VCPU) error {
	id := c.ID()
	if h.cur[id] != nil {
		return fmt.Errorf("hafnium: RunVCPU from guest context on core %d", id)
	}
	if vc == nil {
		return ErrBadVCPU
	}
	if vc.vm.state != VMRunning {
		return ErrNotRunning
	}
	switch vc.state {
	case VCPURunnable, VCPUBlocked:
		// Blocked VCPUs may be run explicitly; they will block again if
		// nothing arrived (mirrors Hafnium's run-on-demand).
	case VCPURunning:
		return fmt.Errorf("hafnium: %s already running on core %d", vc, vc.core)
	default:
		return fmt.Errorf("hafnium: %s is %v", vc, vc.state)
	}
	h.stats.Runs++
	vc.vm.mRuns.Inc()
	h.hypercall(hcRun, vc.vm)
	vc.state = VCPURunning
	vc.core = id
	vc.runs++
	h.cur[id] = vc
	h.preempted[id] = nil
	h.enteredAt[id] = h.node.Now()

	// Virtual timer restore.
	if vc.vtWatch != nil {
		vc.vtWatch.Disarm()
	}
	if vc.vtArmed {
		// An already-passed deadline is delivered as a pending virq.
		if vc.vtDeadline <= h.node.Now() {
			vc.vtArmed = false
			vc.pendVIRQ(gic.IRQVirtualTimer)
		} else {
			h.node.Timers.Core(id).Arm(timer.Virt, vc.vtDeadline)
		}
	}

	costs := &h.node.Costs
	entry := costs.HypTrap + costs.WorldSwitch
	// TLB transient: a flushed (or capacity-evicted) stage-2 working set
	// re-faults entry by entry after the switch.
	entry += h.refillCost(vc)
	h.worldSwitch(vc.vm, entry)

	// Detach the saved frames now: the VCPU is resident from this point,
	// so a primary-bound interrupt during the entry window switches it
	// back out and must not clobber the context being restored (the
	// interrupted entry becomes part of the frame chain instead). They
	// wait on the VCPU, not in the callback, so a snapshot taken inside
	// the window records them. The two buffers trade places, so neither
	// is reallocated and they never share storage.
	vc.entering, vc.saved = vc.saved, vc.entering[:0]
	c.ExecBound("el2.run", entry, true, vc.runFn, 0)
	return nil
}

// runDone is a VCPU's runFn, the end of RunVCPU's entry window: boot the
// guest or put its saved frames back on the core, then deliver what is
// pending.
func (vc *VCPU) runDone(c *machine.Core, _ int) {
	frames := vc.entering
	vc.entering = frames[:0]
	if !vc.booted {
		vc.booted = true
		vc.vm.guest.Boot(vc)
	} else if len(frames) > 0 {
		c.RestoreStack(frames)
	}
	// Boot may already have exited the VCPU: a guest that parks itself at
	// boot while a doorbell is pending blocks, converts to a yield (FFA
	// semantics) and is descheduled by the time control returns here. The
	// virq then belongs to the next entry — it must not be injected into a
	// context that is no longer resident.
	if vc.core == c.ID() && len(vc.pending) > 0 {
		c.CallHandler(vc.drainHandler)
	}
}

// tlbEntries caps the TLB refill transient: the Cortex-A53's main TLB
// holds 512 entries, so no guest re-faults more than that after a switch.
const tlbEntries = 512

// refillCost models the TLB warm-up the incoming guest pays.
func (h *Hypervisor) refillCost(vc *VCPU) sim.Duration {
	ws := vc.vm.spec.WorkingSetPages
	if ws <= 0 {
		ws = 64
	}
	if ws > tlbEntries {
		ws = tlbEntries
	}
	var pages int
	if h.tlbPolicy == TLBFlushAll {
		pages = ws
	} else {
		// VMID-tagged: only what the primary's activation evicted.
		ev := h.primaryOS.EvictionPages()
		if ev < ws {
			pages = ev
		} else {
			pages = ws
		}
	}
	return sim.Duration(pages) * h.node.Costs.TLBRefill
}

// parkVTimer moves a resident VCPU's virtual timer from the physical
// channel to an engine-side watcher.
func (h *Hypervisor) parkVTimer(vc *VCPU, core int) {
	h.node.Timers.Core(core).CancelChannel(timer.Virt)
	if vc.vtArmed {
		h.watchVTimer(vc)
	}
}

// watchVTimer pends the virtual-timer interrupt when the deadline passes
// while the VCPU is descheduled, and tells the primary it is ready.
func (h *Hypervisor) watchVTimer(vc *VCPU) {
	at := vc.vtDeadline
	if at < h.node.Now() {
		at = h.node.Now()
	}
	if vc.vtWatch == nil {
		// A VCPU's watch is re-armed on every deschedule with an armed
		// vtimer, but many VCPUs never have one: build it on first use.
		vc.vtWatch = h.node.Engine.NewRegister("hafnium.vtimer."+vc.String(), func() {
			if !vc.vtArmed || vc.core >= 0 {
				return
			}
			vc.vtArmed = false
			vc.pendVIRQ(gic.IRQVirtualTimer)
			if vc.state == VCPUBlocked {
				vc.state = VCPURunnable
			}
			h.primaryOS.VCPUReady(vc)
		})
	}
	vc.vtWatch.Arm(at)
}

// kick sends the hypervisor's cross-core SGI to a physical core. A
// rejected SGI (bad core number) is reported to the caller rather than
// taking the simulator down; callers treat the kick as best-effort.
func (h *Hypervisor) kick(core int) error {
	if err := h.node.GIC.SendSGI(core, VIRQKick); err != nil {
		return fmt.Errorf("hafnium: kick core %d: %w", core, err)
	}
	h.stats.Kicks++
	h.mKicks.Inc()
	return nil
}

// InjectDeviceIRQ forwards a device interrupt into a VM as a virtual
// interrupt — the primary's forwarding path of §III-b ("route all
// interrupts to the primary VM which is then responsible for forwarding
// any device IRQ on to the super-secondary").
func (h *Hypervisor) InjectDeviceIRQ(to VMID, virq int) error {
	vm, ok := h.VM(to)
	if !ok {
		return ErrBadVM
	}
	if vm.spec.Class == Primary {
		return fmt.Errorf("hafnium: cannot inject into the primary")
	}
	if vm.state != VMRunning {
		return ErrNotRunning
	}
	h.stats.Forwards++
	vm.counter(&vm.mForwards, "el2", "device_forwards").Inc()
	h.pendToVM(vm, virq)
	return nil
}

// pendToVM queues a virq on the VM's VCPU 0 and arranges delivery.
func (h *Hypervisor) pendToVM(vm *VM, virq int) {
	vc := vm.vcpus[0]
	vc.pendVIRQ(virq)
	if vc.core >= 0 {
		_ = h.kick(vc.core) // core came from a resident VCPU; cannot fail
		return
	}
	if vc.state == VCPUBlocked {
		vc.state = VCPURunnable
	}
	h.primaryOS.VCPUReady(vc)
}

// StopVM stops a secondary or super-secondary VM, ejecting resident VCPUs.
func (h *Hypervisor) StopVM(id VMID) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.spec.Class == Primary {
		return fmt.Errorf("hafnium: refusing to stop the primary")
	}
	if vm.state != VMRunning {
		return ErrNotRunning
	}
	vm.state = VMStopped
	for _, vc := range vm.vcpus {
		if vc.core >= 0 {
			_ = h.kick(vc.core)
		} else {
			vc.state = VCPUStopped
			vc.CancelVTimer()
			vc.saved = nil
		}
	}
	return nil
}

// RestartVM returns a stopped VM to service (fresh boot of its VCPUs).
func (h *Hypervisor) RestartVM(id VMID) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.state != VMStopped {
		return fmt.Errorf("hafnium: VM %q is %v, not stopped", vm.spec.Name, vm.state)
	}
	vm.state = VMRunning
	for _, vc := range vm.vcpus {
		vc.state = VCPURunnable
		vc.booted = false
		vc.saved = nil
		vc.pending = nil
		h.primaryOS.VCPUReady(vc)
	}
	return nil
}

// msgSend implements the mailbox hypercall. Allowed pairs: the primary
// may message anyone; the super-secondary and secondaries may message
// only the primary (the paper's secure job-control channel). The payload
// is copied into the receiver's reused receive buffer.
func (h *Hypervisor) msgSend(from, to VMID, payload []byte) error {
	src, ok := h.VM(from)
	if !ok {
		return ErrBadVM
	}
	dst, ok := h.VM(to)
	if !ok {
		return ErrBadVM
	}
	if src.spec.Class != Primary && to != PrimaryID {
		return ErrDenied
	}
	if dst.state != VMRunning {
		return ErrNotRunning
	}
	if dst.mailboxFull {
		return ErrBusy
	}
	dst.deliver(from, payload)
	h.stats.Messages++
	h.hypercall(hcMsgSend, src)
	if dst.spec.Class == Primary {
		// Notify the primary with a mailbox SGI on core 0; if a guest is
		// resident there, the SGI world-switches it out like any
		// primary-owned interrupt. One exception: the sender itself may
		// be that resident guest. Hardware takes the physical interrupt
		// only after the hypercall's ERET, so the switch-out must not
		// fire inside the caller's own hypercall sequence — deliver the
		// SGI once the current instant's guest work has unwound (by
		// which point a send-then-wait caller has parked and core 0 is
		// free for the primary).
		if cur := h.cur[0]; cur != nil && cur.vm == src {
			h.node.Engine.AfterNamed(0, "el2.sgi.self", h.sgiSelfFn)
			return nil
		}
		if err := h.node.GIC.SendSGI(0, VIRQMailbox); err != nil {
			return err
		}
		return nil
	}
	h.pendToVM(dst, VIRQMailbox)
	return nil
}

// sgiSelf is msgSend's deferred mailbox SGI to the primary, for a sender
// that was itself resident on core 0.
func (h *Hypervisor) sgiSelf() { _ = h.node.GIC.SendSGI(0, VIRQMailbox) }

// msgRecv pops a VM's mailbox.
func (h *Hypervisor) msgRecv(id VMID) (Message, error) {
	vm, ok := h.VM(id)
	if !ok {
		return Message{}, ErrBadVM
	}
	if !vm.mailboxFull {
		return Message{}, ErrEmpty
	}
	msg := vm.mailbox
	vm.clearMailbox()
	h.hypercall(hcMsgRecv, vm)
	return msg, nil
}

// SendFromPrimary is the primary kernel's mailbox send.
func (h *Hypervisor) SendFromPrimary(to VMID, payload []byte) error {
	return h.msgSend(PrimaryID, to, payload)
}

// RecvForPrimary pops the primary's mailbox.
func (h *Hypervisor) RecvForPrimary() (Message, error) {
	return h.msgRecv(PrimaryID)
}

// accountCPU folds the residency span ending now into the VM's total.
func (h *Hypervisor) accountCPU(core int, vc *VCPU) {
	h.vmCPU[vc.vm.id] += h.node.Now().Sub(h.enteredAt[core])
}

// CPUTime reports the total core time a VM's VCPUs have been resident
// (including EL2 entry/exit costs charged on its behalf), 0 for an ID no
// VM holds.
func (h *Hypervisor) CPUTime(id VMID) sim.Duration {
	if int(id) < len(h.vmCPU) {
		return h.vmCPU[id]
	}
	return 0
}

// FrameOwner reports which VM owns a physical page.
func (h *Hypervisor) FrameOwner(pa mem.PA) VMID {
	return h.owner.lookup(pa)
}
