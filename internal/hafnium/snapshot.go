package hafnium

import (
	"fmt"

	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

// vcpuSnap is one VCPU's snapshot: scheduling state plus the saved
// execution context (suspension-stack frames, and frames waiting out an
// el2.run entry, each with its whole value) and the virtual-timer
// registers.
type vcpuSnap struct {
	state    VCPUState
	core     int
	saved    []*machine.Activity
	entering []*machine.Activity
	acts     []machine.ActivityState
	pending  []int
	booted   bool

	vtArmed     bool
	vtDeadline  sim.Time
	vtPendEvent sim.Event

	runs uint64
}

// vmSnap is one VM's snapshot. The stage-2 table and walk cache are
// recorded by pointer *and* by state: crash recovery swaps the table
// object out, so a restore must first repoint the VM at the object the
// snapshot saw, then rewind that object's contents.
type vmSnap struct {
	state        VMState
	stage2       *mmu.Table
	stage2St     sim.State
	s2cache      *mmu.WalkCache
	s2cacheSt    sim.State
	nextShareIPA uint64
	mailbox      Message
	mailboxFull  bool
	mmio         []mem.Region
	restarts     int
	watchdog     sim.Event
	crashReason  string
	warmS2       sim.State
	warmShareIPA uint64
	vcpus        []vcpuSnap
}

// hypState is Hypervisor's Snapshot payload.
type hypState struct {
	cur       []*VCPU
	preempted []*VCPU
	lastVMID  []VMID
	enteredAt []sim.Time
	vmCPU     map[VMID]sim.Duration

	owner       map[mem.PA]VMID
	ownerVer    uint64
	shares      map[uint64]*shareRecord
	nextShareID uint64

	nsAlloc sim.State
	sAlloc  sim.State

	booted bool
	stats  Stats

	vms []vmSnap // in h.order
}

// Snapshot captures the whole EL2 world: per-core residency, VM and
// VCPU state machines (saved contexts, pending virqs, virtual timers,
// watchdogs), stage-2 tables (copy-on-write freeze), the frame-owner
// map, memory grants, both allocators and the counters. Hypervisor
// implements sim.Snapshotter and registers itself on the node at build
// time, so node snapshots include it automatically.
func (h *Hypervisor) Snapshot() sim.State {
	s := &hypState{
		cur:         append([]*VCPU(nil), h.cur...),
		preempted:   append([]*VCPU(nil), h.preempted...),
		lastVMID:    append([]VMID(nil), h.lastVMID...),
		enteredAt:   append([]sim.Time(nil), h.enteredAt...),
		vmCPU:       make(map[VMID]sim.Duration, len(h.vmCPU)),
		owner:       make(map[mem.PA]VMID, len(h.owner)),
		ownerVer:    h.ownerVer,
		shares:      make(map[uint64]*shareRecord, len(h.shares)),
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
	for k, v := range h.owner {
		s.owner[k] = v
	}
	for id, rec := range h.shares {
		cp := *rec // Grant.Pages is append-only after creation; shared
		s.shares[id] = &cp
	}
	for _, id := range h.order {
		vm := h.vms[id]
		vs := vmSnap{
			state:        vm.state,
			stage2:       vm.stage2,
			stage2St:     vm.stage2.Snapshot(),
			s2cache:      vm.s2cache,
			s2cacheSt:    vm.s2cache.Snapshot(),
			nextShareIPA: vm.nextShareIPA,
			mmio:         append([]mem.Region(nil), vm.mmio...),
			restarts:     vm.restarts,
			watchdog:     vm.watchdog,
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
				state:       vc.state,
				core:        vc.core,
				saved:       append([]*machine.Activity(nil), vc.saved...),
				entering:    append([]*machine.Activity(nil), vc.entering...),
				pending:     append([]int(nil), vc.pending...),
				booted:      vc.booted,
				vtArmed:     vc.vtArmed,
				vtDeadline:  vc.vtDeadline,
				vtPendEvent: vc.vtPendEvent,
				runs:        vc.runs,
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

// Restore reinstalls a snapshot taken on this hypervisor. The node's
// engine must already be restored (watchdog and vtimer Event handles
// revalidate against it), which Node.Restore guarantees.
func (h *Hypervisor) Restore(st sim.State) {
	s, ok := st.(*hypState)
	if !ok {
		panic(fmt.Sprintf("hafnium: Hypervisor.Restore of foreign state %T", st))
	}
	copy(h.cur, s.cur)
	copy(h.preempted, s.preempted)
	copy(h.lastVMID, s.lastVMID)
	copy(h.enteredAt, s.enteredAt)
	h.vmCPU = make(map[VMID]sim.Duration, len(s.vmCPU))
	for k, v := range s.vmCPU {
		h.vmCPU[k] = v
	}
	// The frame-owner map has one entry per physical page; skip the
	// rebuild when the version stamps match (ownership never changed
	// since the capture), which keeps verbatim forks O(dirtied state).
	if h.ownerVer != s.ownerVer {
		h.owner = make(map[mem.PA]VMID, len(s.owner))
		for k, v := range s.owner {
			h.owner[k] = v
		}
		h.ownerVer = s.ownerVer
	}
	h.shares = make(map[uint64]*shareRecord, len(s.shares))
	for id, rec := range s.shares {
		cp := *rec
		h.shares[id] = &cp
	}
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
		// Repoint at the table/cache objects the snapshot saw (crash
		// recovery may have swapped them since), then rewind them.
		vm.stage2 = vs.stage2
		vm.stage2.Restore(vs.stage2St)
		vm.s2cache = vs.s2cache
		vm.s2cache.Restore(vs.s2cacheSt)
		vm.nextShareIPA = vs.nextShareIPA
		vm.clearMailbox()
		if vs.mailboxFull {
			vm.mailbox = Message{From: vs.mailbox.From, Payload: append([]byte(nil), vs.mailbox.Payload...)}
			vm.mailboxFull = true
		}
		vm.mmio = append(vm.mmio[:0], vs.mmio...)
		vm.restarts = vs.restarts
		vm.watchdog = vs.watchdog
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
			vc.vtPendEvent = cs.vtPendEvent
			vc.runs = cs.runs
		}
	}
}
