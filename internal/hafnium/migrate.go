package hafnium

import (
	"fmt"

	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/sim"
)

// This file is the hypervisor side of live VM migration. The machine
// layer (machine.Cluster.Migrate) drives the wire protocol — pre-copy
// rounds, stop-and-copy, commit handshake — and calls down here through
// the Migrator adapter to pause, carve out, admit, roll back or release
// VM images. The invariant every path preserves: a migrating VM resumes
// at the source (abort) or completes at the target (commit), never both.

// MigratableGuest is a GuestOS whose logical state can be exported into
// a migration image and reinstalled on another node. kernel.Guest
// implements it by exporting its counters and every osapi.Portable
// workload's state; the destination continues execution by booting the
// guest again from the imported state — timers are re-armed by the
// fresh boot, the way real migration re-arms them from saved registers.
type MigratableGuest interface {
	GuestOS
	ExportMigration() (state any, bytes int)
	ImportMigration(state any) error
}

// VCPUImage is one VCPU's slice of a migration image: the pending
// virtual interrupts that must be delivered after resume. Execution
// context does not travel — the destination boots the guest from the
// imported process state.
type VCPUImage struct {
	Pending []int
}

// VMImage is the portable VM slice a migration ships: identity, memory
// geometry, the stage-2 capture stamp, accumulated CPU time (carried so
// scheduling accounting survives the move), per-VCPU interrupt state and
// the guest kernel's exported image.
type VMImage struct {
	Name     string
	RAMBytes uint64
	// S2Mapped/S2Gen stamp the copy-on-write stage-2 freeze the image was
	// carved from: mapped bytes and the table generation at capture.
	S2Mapped uint64
	S2Gen    uint64
	// S2Freeze is the frozen stage-2 capture itself (the CoW freeze makes
	// it O(1)); the destination rebuilds its own mapping, so this is the
	// consistency anchor, not a wire payload.
	S2Freeze   sim.State
	Restarts   int
	CPUTime    sim.Duration
	VCPUs      []VCPUImage
	GuestState any
	GuestBytes int
}

// PauseForMigration begins the stop-and-copy phase on the source node:
// the VM transitions to VMMigrating and its resident VCPUs are ejected
// via cross-core kicks (asynchronous — poll MigrationQuiesced before
// ExtractVM). Unlike StopVM, the guest's logical state is preserved for
// extraction. Only secondaries with a migratable guest can migrate.
func (h *Hypervisor) PauseForMigration(id VMID) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.spec.Class != Secondary {
		return fmt.Errorf("hafnium: VM %q is %v; only secondaries migrate", vm.spec.Name, vm.spec.Class)
	}
	if vm.state != VMRunning {
		return ErrNotRunning
	}
	if _, ok := vm.guest.(MigratableGuest); !ok {
		return fmt.Errorf("hafnium: VM %q guest kernel is not migratable", vm.spec.Name)
	}
	vm.state = VMMigrating
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

// MigrationQuiesced reports whether every VCPU of a migrating VM has
// left its physical core (the eviction kicks are events; the migration
// driver polls this before extracting the image).
func (h *Hypervisor) MigrationQuiesced(id VMID) bool {
	vm, ok := h.VM(id)
	if !ok || vm.state != VMMigrating {
		return false
	}
	for _, vc := range vm.vcpus {
		if vc.core >= 0 {
			return false
		}
	}
	return true
}

// ExtractVM carves the portable image out of a paused, quiesced VM:
// the copy-on-write stage-2 freeze (consistent capture stamp), pending
// virtual interrupts, CPU-time accounting and the guest kernel's
// exported state.
func (h *Hypervisor) ExtractVM(id VMID) (*VMImage, error) {
	vm, ok := h.VM(id)
	if !ok {
		return nil, ErrBadVM
	}
	if vm.state != VMMigrating {
		return nil, fmt.Errorf("hafnium: VM %q is %v, not migrating", vm.spec.Name, vm.state)
	}
	if !h.MigrationQuiesced(id) {
		return nil, fmt.Errorf("hafnium: VM %q still has resident VCPUs", vm.spec.Name)
	}
	mg := vm.guest.(MigratableGuest)
	gs, gb := mg.ExportMigration()
	img := &VMImage{
		Name:       vm.spec.Name,
		RAMBytes:   vm.ramSize,
		S2Mapped:   vm.stage2.MappedBytes(),
		S2Gen:      vm.stage2.Gen(),
		S2Freeze:   vm.stage2.Snapshot(),
		Restarts:   vm.restarts,
		CPUTime:    h.vmCPU[vm.id],
		GuestState: gs,
		GuestBytes: gb,
	}
	for _, vc := range vm.vcpus {
		img.VCPUs = append(img.VCPUs, VCPUImage{Pending: append([]int(nil), vc.pending...)})
	}
	return img, nil
}

// AdmitVM imports a migrated image into a standby slot on the target
// node and resumes it: guest state installed, pending interrupts
// re-queued, VCPUs handed to the primary scheduler for a fresh boot
// that continues the imported work.
func (h *Hypervisor) AdmitVM(name string, img *VMImage) error {
	vm, ok := h.VMByName(name)
	if !ok {
		return ErrBadVM
	}
	if vm.spec.Class != Secondary {
		return fmt.Errorf("hafnium: VM %q is %v; only secondaries migrate", name, vm.spec.Class)
	}
	if vm.state != VMStopped {
		return fmt.Errorf("hafnium: VM %q is %v, not a stopped standby slot", name, vm.state)
	}
	if vm.ramSize != img.RAMBytes {
		return fmt.Errorf("hafnium: VM %q slot has %d RAM bytes, image needs %d", name, vm.ramSize, img.RAMBytes)
	}
	if len(vm.vcpus) != len(img.VCPUs) {
		return fmt.Errorf("hafnium: VM %q slot has %d VCPUs, image has %d", name, len(vm.vcpus), len(img.VCPUs))
	}
	mg, ok := vm.guest.(MigratableGuest)
	if !ok {
		return fmt.Errorf("hafnium: VM %q guest kernel is not migratable", name)
	}
	if err := mg.ImportMigration(img.GuestState); err != nil {
		return err
	}
	vm.restarts = img.Restarts
	vm.crashReason = ""
	vm.state = VMRunning
	h.vmCPU[vm.id] += img.CPUTime
	for i, vc := range vm.vcpus {
		vc.state = VCPURunnable
		vc.booted = false
		vc.saved = nil
		vc.pending = append([]int(nil), img.VCPUs[i].Pending...)
		h.primaryOS.VCPUReady(vc)
	}
	h.stats.MigratedIn++
	h.metric("migrated_in", vm).Inc()
	h.lifecycle("migrate-in", vm, "live migration")
	return nil
}

// AbortMigration rolls a paused VM back into service on the source node
// after a failed transfer: the extracted image — the checkpoint taken at
// pause — is reimported and the VCPUs resume, exactly as if the
// migration had never been attempted (minus the pause window).
func (h *Hypervisor) AbortMigration(id VMID, img *VMImage, reason string) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.state != VMMigrating {
		return fmt.Errorf("hafnium: VM %q is %v, not migrating", vm.spec.Name, vm.state)
	}
	mg := vm.guest.(MigratableGuest)
	if err := mg.ImportMigration(img.GuestState); err != nil {
		return err
	}
	vm.state = VMRunning
	for i, vc := range vm.vcpus {
		vc.state = VCPURunnable
		vc.booted = false
		vc.saved = nil
		vc.pending = append([]int(nil), img.VCPUs[i].Pending...)
		h.primaryOS.VCPUReady(vc)
	}
	h.stats.MigrationAborts++
	h.metric("migration_aborts", vm).Inc()
	h.lifecycle("migrate-abort", vm, reason)
	return nil
}

// ReleaseMigrated finishes a committed migration on the source node: the
// VM's RAM is scrubbed (and charged), stale TLB entries invalidated on
// every core, memory grants revoked and the mailbox cleared — the same
// teardown a crash containment performs, because the image now runs
// elsewhere and nothing here may leak. The slot ends VMStopped, reusable
// as a standby landing pad for a future migration back.
func (h *Hypervisor) ReleaseMigrated(id VMID) error {
	vm, ok := h.VM(id)
	if !ok {
		return ErrBadVM
	}
	if vm.state != VMMigrating {
		return fmt.Errorf("hafnium: VM %q is %v, not migrating", vm.spec.Name, vm.state)
	}
	h.stats.ScrubbedPages += vm.ramSize / mem.PageSize
	h.metric("scrubbed_pages", vm).Add(vm.ramSize / mem.PageSize)
	for _, c := range h.node.Cores {
		c.InvalidateTLB()
	}
	h.revokeGrants(vm)
	vm.clearMailbox()
	vm.state = VMStopped
	for _, vc := range vm.vcpus {
		vc.state = VCPUStopped
		vc.booted = false
		vc.saved = nil
		vc.pending = nil
	}
	h.stats.MigratedOut++
	h.metric("migrated_out", vm).Inc()
	h.lifecycle("migrate-out", vm, "live migration")
	return nil
}

// LiveCPUTime is CPUTime plus the still-open residency spans of the
// VM's currently resident VCPUs. CPUTime itself folds a span in only
// when the VCPU exits, so for a guest that has been spinning without an
// exit it reads far behind the clock; the dirty-page model needs the
// live value.
func (h *Hypervisor) LiveCPUTime(id VMID) sim.Duration {
	d := h.vmCPU[id]
	vm, ok := h.VM(id)
	if !ok {
		return d
	}
	for _, vc := range vm.vcpus {
		if vc.core >= 0 && h.cur[vc.core] == vc {
			d += h.node.Now().Sub(h.enteredAt[vc.core])
		}
	}
	return d
}

// Migrator adapts a Hypervisor to machine.MigrationEndpoint, adding the
// dirty-page model the pre-copy rounds consult: pages dirtied since a
// stamp are estimated from the guest CPU time accrued at dirtyRate
// pages/second, clamped to the VM's working set — and if the stage-2
// generation moved (mapping churn: a grant, an unmap), the whole working
// set is conservatively considered dirty.
type Migrator struct {
	hyp *Hypervisor
}

// dirtyRate is the dirty-page model's rate: half a million stage-2
// pages (2 GiB) per second of guest CPU — memory-bound work dirties its
// working set far faster than a rack link drains it, which is what makes
// pre-copy converge on the working set rather than on zero.
const dirtyRate = 500_000.0

// NewMigrator wraps h for the machine-layer migration driver.
func NewMigrator(h *Hypervisor) *Migrator {
	return &Migrator{hyp: h}
}

var _ machine.MigrationEndpoint = (*Migrator)(nil)

func (m *Migrator) vmByName(name string) (*VM, error) {
	vm, ok := m.hyp.VMByName(name)
	if !ok {
		return nil, fmt.Errorf("hafnium: no VM %q", name)
	}
	return vm, nil
}

// workingSet is the dirty-page clamp: the manifest working set, bounded
// by (and defaulting to) the VM's total RAM pages.
func (m *Migrator) workingSet(vm *VM) uint64 {
	total := vm.ramSize / mem.PageSize
	ws := uint64(vm.spec.WorkingSetPages)
	if ws == 0 || ws > total {
		ws = total
	}
	return ws
}

// VMInfo implements machine.MigrationEndpoint.
func (m *Migrator) VMInfo(name string) (machine.VMMigrationInfo, error) {
	vm, err := m.vmByName(name)
	if err != nil {
		return machine.VMMigrationInfo{}, err
	}
	return machine.VMMigrationInfo{
		RAMBytes:        vm.ramSize,
		WorkingSetPages: m.workingSet(vm),
		Stamp: machine.MigrationStamp{
			CPU: m.hyp.LiveCPUTime(vm.id),
			Gen: vm.stage2.Gen(),
		},
	}, nil
}

// PauseVM implements machine.MigrationEndpoint.
func (m *Migrator) PauseVM(name string) error {
	vm, err := m.vmByName(name)
	if err != nil {
		return err
	}
	return m.hyp.PauseForMigration(vm.id)
}

// VMQuiesced implements machine.MigrationEndpoint.
func (m *Migrator) VMQuiesced(name string) bool {
	vm, err := m.vmByName(name)
	if err != nil {
		return false
	}
	return m.hyp.MigrationQuiesced(vm.id)
}

// ExtractVM implements machine.MigrationEndpoint.
func (m *Migrator) ExtractVM(name string) (any, int, error) {
	vm, err := m.vmByName(name)
	if err != nil {
		return nil, 0, err
	}
	img, err := m.hyp.ExtractVM(vm.id)
	if err != nil {
		return nil, 0, err
	}
	// The image's wire size: guest state plus fixed VM/VCPU metadata.
	bytes := img.GuestBytes + 128 + 16*len(img.VCPUs)
	return img, bytes, nil
}

// AbortMigration implements machine.MigrationEndpoint.
func (m *Migrator) AbortMigration(name string, img any, reason string) error {
	vm, err := m.vmByName(name)
	if err != nil {
		return err
	}
	vi, ok := img.(*VMImage)
	if !ok {
		return fmt.Errorf("hafnium: abort with foreign image %T", img)
	}
	return m.hyp.AbortMigration(vm.id, vi, reason)
}

// AdmitVM implements machine.MigrationEndpoint.
func (m *Migrator) AdmitVM(name string, img any) error {
	vi, ok := img.(*VMImage)
	if !ok {
		return fmt.Errorf("hafnium: admit with foreign image %T", img)
	}
	return m.hyp.AdmitVM(name, vi)
}

// ReleaseVM implements machine.MigrationEndpoint.
func (m *Migrator) ReleaseVM(name string) error {
	vm, err := m.vmByName(name)
	if err != nil {
		return err
	}
	return m.hyp.ReleaseMigrated(vm.id)
}

// DirtyPages implements machine.MigrationEndpoint.
func (m *Migrator) DirtyPages(name string, since machine.MigrationStamp) (uint64, machine.MigrationStamp) {
	vm, err := m.vmByName(name)
	if err != nil {
		return 0, since
	}
	now := machine.MigrationStamp{CPU: m.hyp.LiveCPUTime(vm.id), Gen: vm.stage2.Gen()}
	ws := m.workingSet(vm)
	pages := uint64((now.CPU - since.CPU).Seconds() * dirtyRate)
	if pages > ws {
		pages = ws
	}
	if now.Gen != since.Gen {
		pages = ws
	}
	return pages, now
}
