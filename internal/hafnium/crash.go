package hafnium

import (
	"fmt"

	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

// This file is the crash-containment state machine: any guest
// misbehaviour — a guest panic, a stage-2 violation, a hypercall from an
// impossible context, an injected fault — funnels into containCrash, which
// transitions the VM to VMCrashed, tears down everything it could leak
// (memory grants, pending virtual interrupts, stale TLB entries, the
// mailbox) and arms the per-VM watchdog. The primary Kitten VM and sibling
// partitions keep running; only the offending partition pays.

// badHypercall records guest API misuse from a VCPU that is not resident
// and answers it by killing the offending partition — the contained
// replacement for what used to be a simulator panic.
func (h *Hypervisor) badHypercall(vm *VM, reason string) {
	h.countBadHypercall(vm)
	h.crashVM(vm, reason)
}

// countBadHypercall counts one guest API misuse by vm, in Stats and in
// the VM's el2.bad_hypercalls series. Every misuse path counts through
// it, so the two records agree.
func (h *Hypervisor) countBadHypercall(vm *VM) {
	h.stats.BadHypercalls++
	h.metric("bad_hypercalls", vm).Inc()
}

// crashVM is the engine/primary-context crash entry: contain the crash
// and eject resident VCPUs via cross-core kicks (their cores world-switch
// out with ExitAborted when the SGI lands).
func (h *Hypervisor) crashVM(vm *VM, reason string) {
	if !h.containCrash(vm, reason) {
		return
	}
	for _, vc := range vm.vcpus {
		if vc.core >= 0 {
			_ = h.kick(vc.core)
		}
	}
}

// abortFromGuest is the guest-context crash entry: vc is resident, so the
// crash unwinds through a world switch on its own core while siblings are
// kicked off theirs.
func (h *Hypervisor) abortFromGuest(vc *VCPU, reason string) {
	c := h.node.Cores[vc.core]
	vm := vc.vm
	if !h.containCrash(vm, reason) {
		// A sibling VCPU crashed the VM first; just get off the core.
		h.forceExit(c, vc, ExitAborted)
		return
	}
	id := c.ID()
	c.StealAllSuspended(nil) // discard the dead guest's in-flight work
	vc.saved = nil
	vc.core = -1
	h.accountCPU(id, vc)
	h.cur[id] = nil
	for _, v := range vm.vcpus {
		if v != vc && v.core >= 0 {
			_ = h.kick(v.core)
		}
	}
	costs := &h.node.Costs
	h.worldSwitch(vm, costs.HypTrap+costs.WorldSwitch)
	c.ExecBound("el2.abort", costs.HypTrap+costs.WorldSwitch, true, vc.exitFn, int(ExitAborted))
}

// containCrash performs the state transition, VCPU teardown, grant
// revocation, interrupt drain, and watchdog arming shared by every crash
// path. It reports false when the VM is not in a crashable state (already
// crashed, stopped, or quarantined), making concurrent crash reports from
// multiple VCPUs idempotent.
func (h *Hypervisor) containCrash(vm *VM, reason string) bool {
	if vm.spec.Class == Primary {
		// The primary is the trusted scheduler; its failure is not a guest
		// fault but a simulator invariant violation.
		panic(fmt.Sprintf("hafnium: primary VM crash: %s", reason))
	}
	if vm.state != VMRunning {
		return false
	}
	vm.state = VMCrashed
	vm.crashReason = reason
	h.stats.Aborts++
	h.metric("aborts", vm).Inc()
	for _, v := range vm.vcpus {
		v.state = VCPUStopped
		v.CancelVTimer()
		v.pending = nil // drain pending virtual interrupts
		if v.core < 0 {
			v.saved = nil
		}
	}
	// Stale stage-2 translations must not outlive the crash: every core
	// invalidates the VMID's TLB entries, so whatever image runs next in
	// this VMID starts cold.
	for _, c := range h.node.Cores {
		c.InvalidateTLB()
	}
	h.revokeGrants(vm)
	vm.clearMailbox()
	h.lifecycle("crash", vm, reason)
	h.armWatchdog(vm)
	return true
}

// revokeGrants tears down every active grant involving the crashed VM.
// Outbound share/lend grants: the receiver's window is unmapped and the
// frames are scrubbed back to the (dead) owner. Inbound grants: the
// crashed VM's window is unmapped and a lender gets its own mapping — and
// scrubbed frames — back. Grants are walked in ID order (Grants) so the
// teardown sequence is deterministic.
func (h *Hypervisor) revokeGrants(vm *VM) {
	for _, g := range h.Grants(vm.id) {
		size := uint64(len(g.Pages)) * mem.PageSize
		if g.To == vm.id {
			_ = vm.stage2.Unmap(g.ToIPA, size)
			if g.Kind == MemLend {
				_ = mapFrames(h.vms[g.From].stage2, g.FromIPA, g.Pages, mmu.PermRWX)
			}
		} else {
			dst := h.vms[g.To]
			_ = dst.stage2.Unmap(g.ToIPA, size)
		}
		h.stats.ScrubbedPages += uint64(len(g.Pages))
		h.metric("scrubbed_pages", vm).Add(uint64(len(g.Pages)))
		h.dropGrant(&g)
	}
}

// restartBackoff is the base watchdog delay for a VM spec.
func restartBackoff(spec VMSpec) sim.Duration {
	if spec.RestartBackoffUS > 0 {
		return sim.FromMicros(float64(spec.RestartBackoffUS))
	}
	return sim.FromMicros(100)
}

// armWatchdog decides a crashed VM's fate per its manifest policy:
// schedule a restart after an exponentially backed-off delay while budget
// remains, else quarantine if requested, else stay down.
func (h *Hypervisor) armWatchdog(vm *VM) {
	spec := vm.spec
	if spec.Restart == RestartAlways && (spec.MaxRestarts == 0 || vm.restarts < spec.MaxRestarts) {
		shift := uint(vm.restarts)
		if shift > 16 {
			shift = 16
		}
		d := restartBackoff(spec) << shift
		h.node.Engine.AfterNamed(d, "hafnium.watchdog."+spec.Name, func() { h.recoverVM(vm) })
		return
	}
	if spec.Quarantine {
		vm.state = VMQuarantined
		h.stats.Quarantines++
		h.metric("quarantines", vm).Inc()
		h.lifecycle("quarantine", vm, vm.crashReason)
	}
}

// recoverVM returns a crashed VM to service with a scrubbed image and a
// fresh boot of the guest kernel driven through the primary's VCPUReady
// path. The stage-2 image comes back one of two ways: by default a cold
// rebuild (fresh table, re-mapped RAM and device windows); with
// restart_from_snapshot, a rewind of the live table to the warm
// boot-time snapshot — O(pages dirtied since boot) thanks to
// copy-on-write sharing, rather than O(mapped pages). RAM is scrubbed
// (and charged) either way; only the translation-table work is saved.
func (h *Hypervisor) recoverVM(vm *VM) {
	if vm.state != VMCrashed {
		return
	}
	h.stats.ScrubbedPages += vm.ramSize / mem.PageSize
	h.metric("scrubbed_pages", vm).Add(vm.ramSize / mem.PageSize)
	kind := "restart"
	if vm.spec.RestartFromSnapshot && vm.warmS2 != nil {
		// Warm path: the table object is never swapped, only rewound.
		vm.stage2.Restore(vm.warmS2)
		vm.nextShareIPA = vm.warmShareIPA
		h.stats.SnapshotRestores++
		h.metric("snapshot_restores", vm).Inc()
		kind = "snapshot-restore"
	} else {
		vm.stage2 = mmu.NewTable(fmt.Sprintf("s2.%s", vm.spec.Name))
		if err := vm.stage2.Map(GuestRAMBase, uint64(vm.ramPA), vm.ramSize, mmu.PermRWX); err != nil {
			panic(fmt.Sprintf("hafnium: rebuilding %s stage-2 RAM: %v", vm.spec.Name, err))
		}
		mmio := vm.mmio
		vm.mmio = nil
		for _, r := range mmio {
			if err := vm.mapMMIO(r); err != nil {
				panic(fmt.Sprintf("hafnium: rebuilding %s stage-2 MMIO: %v", vm.spec.Name, err))
			}
		}
		vm.nextShareIPA = shareIPABase
	}
	vm.clearMailbox()
	vm.restarts++
	vm.state = VMRunning
	h.stats.Restarts++
	h.metric("restarts", vm).Inc()
	h.lifecycle(kind, vm, vm.crashReason)
	for _, vc := range vm.vcpus {
		vc.state = VCPURunnable
		vc.booted = false
		vc.saved = nil
		vc.pending = nil
		h.primaryOS.VCPUReady(vc)
	}
}

// InjectVMFault crashes a secondary from outside guest context — the path
// a hypervisor-detected stage-2 violation or an injected fault takes. The
// contained crash ejects resident VCPUs and triggers the watchdog policy.
func (h *Hypervisor) InjectVMFault(id VMID, reason string) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.spec.Class == Primary {
		return fmt.Errorf("hafnium: cannot fault the primary")
	}
	if vm.state != VMRunning {
		return ErrNotRunning
	}
	h.crashVM(vm, reason)
	return nil
}
