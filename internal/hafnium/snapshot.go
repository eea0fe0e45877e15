package hafnium

import (
	"fmt"
	"maps"
	"slices"

	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

// vcpuSnap is one VCPU's snapshot: scheduling state plus the saved
// execution context (suspension-stack frames, and frames waiting out an
// el2.run entry, each with its whole value) and the virtual-timer
// registers. The watch that pends an expired vtimer while the VCPU is
// descheduled is an engine register, which the engine snapshot records.
type vcpuSnap struct {
	state    VCPUState
	core     int
	saved    []*machine.Activity
	entering []*machine.Activity
	acts     []machine.ActivityState
	pending  []int
	booted   bool

	vtArmed    bool
	vtDeadline sim.Time

	runs uint64
}

// vmSnap is one VM's snapshot. The stage-2 table is recorded by pointer
// *and* by state: crash recovery swaps the table object out, so a
// restore must first repoint the VM at the object the snapshot saw, then
// rewind that object's contents.
type vmSnap struct {
	state        VMState
	stage2       *mmu.Table
	stage2St     sim.State
	nextShareIPA uint64
	mailbox      Message
	mailboxFull  bool
	mmio         []mem.Region
	restarts     int
	crashReason  string
	warmS2       sim.State
	warmShareIPA uint64
	vcpus        []vcpuSnap
}

// hypState is Hypervisor's Snapshot payload.
type hypState struct {
	cur       []*VCPU
	preempted []*VCPU
	enteredAt []sim.Time
	vmCPU     map[VMID]sim.Duration

	owner       []extent
	shares      map[uint64]*Grant
	nextShareID uint64

	nsAlloc sim.State
	sAlloc  sim.State

	booted bool
	stats  Stats

	vms []vmSnap // in h.order
}

// Snapshot captures the whole EL2 world: per-core residency, VM and
// VCPU state machines (saved contexts, pending virqs, virtual timers),
// stage-2 tables (copy-on-write freeze), the frame-owner
// extents, the active memory grants, both allocators and the counters.
// The grant index by frame run is derived and not recorded. Hypervisor
// implements sim.Snapshotter and registers itself on the node at build
// time, so node snapshots include it automatically.
func (h *Hypervisor) Snapshot() sim.State {
	s := &hypState{
		cur:         append([]*VCPU(nil), h.cur...),
		preempted:   append([]*VCPU(nil), h.preempted...),
		enteredAt:   append([]sim.Time(nil), h.enteredAt...),
		vmCPU:       make(map[VMID]sim.Duration, len(h.vmCPU)),
		owner:       slices.Clone(h.owner.ext),
		shares:      maps.Clone(h.shares),
		nextShareID: h.nextShareID,
		nsAlloc:     h.nsAlloc.Snapshot(),
		booted:      h.booted,
		stats:       h.stats,
	}
	if h.sAlloc != nil {
		s.sAlloc = h.sAlloc.Snapshot()
	}
	for k, v := range h.vmCPU {
		s.vmCPU[k] = v
	}
	for _, id := range h.order {
		vm := h.vms[id]
		vs := vmSnap{
			state:        vm.state,
			stage2:       vm.stage2,
			stage2St:     vm.stage2.Snapshot(),
			nextShareIPA: vm.nextShareIPA,
			mmio:         append([]mem.Region(nil), vm.mmio...),
			restarts:     vm.restarts,
			crashReason:  vm.crashReason,
			warmS2:       vm.warmS2,
			warmShareIPA: vm.warmShareIPA,
		}
		if vm.mailboxFull {
			vs.mailbox = Message{From: vm.mailbox.From, Payload: append([]byte(nil), vm.mailbox.Payload...)}
			vs.mailboxFull = true
		}
		for _, vc := range vm.vcpus {
			cs := vcpuSnap{
				state:      vc.state,
				core:       vc.core,
				saved:      append([]*machine.Activity(nil), vc.saved...),
				entering:   append([]*machine.Activity(nil), vc.entering...),
				pending:    append([]int(nil), vc.pending...),
				booted:     vc.booted,
				vtArmed:    vc.vtArmed,
				vtDeadline: vc.vtDeadline,
				runs:       vc.runs,
			}
			for _, a := range vc.saved {
				cs.acts = append(cs.acts, machine.SnapshotActivity(a))
			}
			for _, a := range vc.entering {
				cs.acts = append(cs.acts, machine.SnapshotActivity(a))
			}
			vs.vcpus = append(vs.vcpus, cs)
		}
		s.vms = append(s.vms, vs)
	}
	return s
}

// Restore reinstalls a snapshot taken on this hypervisor. Pending
// watchdog restarts and vtimer watches are engine events and registers,
// which the engine's own Restore rewinds.
func (h *Hypervisor) Restore(st sim.State) {
	s, ok := st.(*hypState)
	if !ok {
		panic(fmt.Sprintf("hafnium: Hypervisor.Restore of foreign state %T", st))
	}
	copy(h.cur, s.cur)
	copy(h.preempted, s.preempted)
	copy(h.enteredAt, s.enteredAt)
	h.vmCPU = make(map[VMID]sim.Duration, len(s.vmCPU))
	for k, v := range s.vmCPU {
		h.vmCPU[k] = v
	}
	h.owner.ext = append(h.owner.ext[:0], s.owner...)
	// Refill the grant table and its frame-run index in place.
	clear(h.shares)
	maps.Copy(h.shares, s.shares)
	h.granted.refill(h.shares)
	h.nextShareID = s.nextShareID
	h.nsAlloc.Restore(s.nsAlloc)
	if h.sAlloc != nil && s.sAlloc != nil {
		h.sAlloc.Restore(s.sAlloc)
	}
	h.booted = s.booted
	h.stats = s.stats
	for i, id := range h.order {
		vm := h.vms[id]
		vs := &s.vms[i]
		vm.state = vs.state
		// Repoint at the table object the snapshot saw (crash recovery
		// may have swapped it since), then rewind it.
		vm.stage2 = vs.stage2
		vm.stage2.Restore(vs.stage2St)
		vm.nextShareIPA = vs.nextShareIPA
		vm.clearMailbox()
		if vs.mailboxFull {
			vm.deliver(vs.mailbox.From, vs.mailbox.Payload)
		}
		vm.mmio = append(vm.mmio[:0], vs.mmio...)
		vm.restarts = vs.restarts
		vm.crashReason = vs.crashReason
		vm.warmS2 = vs.warmS2
		vm.warmShareIPA = vs.warmShareIPA
		for j, vc := range vm.vcpus {
			cs := &vs.vcpus[j]
			vc.state = cs.state
			vc.core = cs.core
			vc.saved = append(vc.saved[:0], cs.saved...)
			vc.entering = append([]*machine.Activity(nil), cs.entering...)
			for _, as := range cs.acts {
				as.Restore()
			}
			vc.pending = append(vc.pending[:0], cs.pending...)
			vc.booted = cs.booted
			vc.vtArmed = cs.vtArmed
			vc.vtDeadline = cs.vtDeadline
			vc.runs = cs.runs
		}
	}
}
