package hafnium

import (
	"fmt"

	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/sim"
)

// This file is the serving-pool environment-recycle path: a stopped
// secondary VM is scrubbed and its stage-2 image brought back to a
// pristine state so the next short-lived job starts in a clean
// environment, without paying a crash or a full manifest reboot. It is
// the "prepare once, execute many" half of the ephemeral-VM serving
// workload: a warm recycle rewinds the live table to the boot-time
// copy-on-write snapshot (O(pages dirtied)), a cold recycle rebuilds the
// table from scratch (O(mapped pages)). PrepareCost converts either path
// into the simulated latency the pool charges before the environment is
// restarted.

// prepPages reports the page counts a recycle touches: the VM's full RAM
// image and the working set a warm rewind is bounded by. A manifest with
// no working_set_pages pessimistically dirties everything.
func (vm *VM) prepPages() (all, ws uint64) {
	all = vm.ramSize / mem.PageSize
	ws = uint64(vm.spec.WorkingSetPages)
	if ws == 0 || ws > all {
		ws = all
	}
	return all, ws
}

// PrepareCost reports the simulated time a RecycleVM of the given flavor
// costs: a cold prepare scrubs and re-maps every RAM page; a warm
// prepare scrubs only the working set the last tenant dirtied and
// rewinds those stage-2 descriptors to the copy-on-write warm snapshot.
// The cost is charged by the caller (the serving pool delays the
// environment's restart by it) rather than burned on a core, because the
// table work happens in EL2 on whatever core is free.
func (h *Hypervisor) PrepareCost(id VMID, warm bool) (sim.Duration, error) {
	vm, ok := h.vms[id]
	if !ok {
		return 0, ErrBadVM
	}
	all, ws := vm.prepPages()
	costs := h.node.Costs
	if warm && vm.warmS2 != nil {
		return sim.Duration(ws) * (costs.PageScrub + costs.S2RestorePage), nil
	}
	return sim.Duration(all) * (costs.PageScrub + costs.S2MapPage), nil
}

// RecycleVM returns a stopped secondary's image to a pristine state so a
// serving pool can reuse the partition for its next tenant. With warm
// set (and a warm boot-time snapshot available — restart_from_snapshot
// in the manifest), the live stage-2 table is rewound to the snapshot;
// otherwise the table is rebuilt cold, exactly as a watchdog cold
// restart would. RAM handed to the next tenant is scrubbed (and
// accounted) either way. The VM stays stopped: the caller charges
// PrepareCost and then RestartVM-boots it. Reports whether the warm path
// was actually used.
func (h *Hypervisor) RecycleVM(id VMID, warm bool) (bool, error) {
	vm, ok := h.vms[id]
	if !ok {
		return false, ErrBadVM
	}
	if vm.spec.Class == Primary {
		return false, fmt.Errorf("hafnium: refusing to recycle the primary")
	}
	if vm.state != VMStopped {
		return false, fmt.Errorf("hafnium: VM %q is %v, not stopped", vm.spec.Name, vm.state)
	}
	all, ws := vm.prepPages()
	// Stale translations for the old tenant must not survive into the new
	// environment, whichever way the table comes back.
	for _, c := range h.node.Cores {
		c.TLB().InvalidateVMID(uint16(vm.id))
	}
	vm.s2cache.Flush()
	usedWarm := warm && vm.warmS2 != nil
	if usedWarm {
		vm.stage2.Restore(vm.warmS2)
		vm.nextShareIPA = vm.warmShareIPA
		h.stats.RecyclesWarm++
		h.stats.ScrubbedPages += ws
		h.metric("recycles_warm", vm).Inc()
		h.metric("scrubbed_pages", vm).Add(ws)
		h.lifecycle("recycle-warm", vm, "")
	} else {
		vm.stage2 = mmu.NewTable(fmt.Sprintf("s2.%s", vm.spec.Name))
		vm.s2cache = mmu.NewWalkCache(vm.stage2, 0)
		if err := vm.stage2.Map(GuestRAMBase, uint64(vm.ramPA), vm.ramSize, mmu.PermRWX); err != nil {
			panic(fmt.Sprintf("hafnium: recycling %s stage-2 RAM: %v", vm.spec.Name, err))
		}
		mmio := vm.mmio
		vm.mmio = nil
		for _, r := range mmio {
			if err := vm.mapMMIO(r); err != nil {
				panic(fmt.Sprintf("hafnium: recycling %s stage-2 MMIO: %v", vm.spec.Name, err))
			}
		}
		vm.nextShareIPA = shareIPABase
		h.stats.RecyclesCold++
		h.stats.ScrubbedPages += all
		h.metric("recycles_cold", vm).Inc()
		h.metric("scrubbed_pages", vm).Add(all)
		h.lifecycle("recycle-cold", vm, "")
	}
	vm.clearMailbox()
	for _, vc := range vm.vcpus {
		vc.pending = nil
		vc.saved = nil
	}
	return usedWarm, nil
}
