package hafnium

import "fmt"

// VIRQNotification is the virtual interrupt a notification arrives as
// (mirroring FFA notifications, which are doorbells without payload —
// the payload travels through shared memory).
const VIRQNotification = 9

// Notify pends a doorbell interrupt on the target VM's VCPU 0. Unlike
// mailbox messages it carries no data and never blocks: it exists so two
// VMs connected by a memory grant can signal "the ring moved" cheaply —
// the building block for the secure I/O channels the paper's §VII calls
// the major challenge ahead.
//
// Authorization: the primary may notify anyone; other VMs may notify the
// primary or a VM they share an active memory grant with (shared memory
// is the communication relationship).
func (h *Hypervisor) Notify(from, to VMID) error {
	src, ok := h.vms[from]
	if !ok {
		return ErrBadVM
	}
	dst, ok := h.vms[to]
	if !ok {
		return ErrBadVM
	}
	if from == to {
		return fmt.Errorf("hafnium: self-notification")
	}
	if dst.state != VMRunning {
		return ErrNotRunning
	}
	if src.spec.Class != Primary && to != PrimaryID && !h.connected(from, to) {
		return ErrDenied
	}
	h.stats.Notifications++
	h.hypercall(hcNotify, src)
	if dst.spec.Class == Primary {
		return h.node.GIC.SendSGI(0, VIRQNotification)
	}
	h.pendToVM(dst, VIRQNotification)
	return nil
}

// connected reports whether an active grant links the two VMs.
func (h *Hypervisor) connected(a, b VMID) bool {
	for _, r := range h.shares {
		if !r.active {
			continue
		}
		if (r.From == a && r.To == b) || (r.From == b && r.To == a) {
			return true
		}
	}
	return false
}

// NotifyFromVCPU is the guest-side hypercall wrapper.
func (vc *VCPU) Notify(to VMID) error {
	return vc.vm.hyp.Notify(vc.vm.id, to)
}
