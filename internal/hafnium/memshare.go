package hafnium

import (
	"fmt"
	"sort"

	"khsim/internal/mem"
	"khsim/internal/mmu"
)

// ShareKind is the FFA memory-management flavour.
type ShareKind int

// Share kinds, mirroring FFA_MEM_SHARE / LEND / DONATE.
const (
	// MemShare keeps the owner's access and grants the receiver access.
	MemShare ShareKind = iota
	// MemLend removes the owner's access for the grant's lifetime.
	MemLend
	// MemDonate transfers ownership permanently.
	MemDonate
)

// String names the kind as its FFA call ("share", "lend" or "donate").
func (k ShareKind) String() string {
	switch k {
	case MemShare:
		return "share"
	case MemLend:
		return "lend"
	default:
		return "donate"
	}
}

// hypercall reports the FFA_MEM_* function the kind is invoked through
// (String's mapping: anything but share or lend counts as a donate).
func (k ShareKind) hypercall() hcKind {
	switch k {
	case MemShare:
		return hcMemShare
	case MemLend:
		return hcMemLend
	default:
		return hcMemDonate
	}
}

// Grant describes an active memory grant.
type Grant struct {
	ID      uint64
	Kind    ShareKind
	From    VMID
	To      VMID
	Pages   []mem.PA // physical frames
	FromIPA uint64
	ToIPA   uint64
	Perms   mmu.Perms
}

// Grants returns the active grants involving the VM (as sender or
// receiver), in grant ID order.
func (h *Hypervisor) Grants(id VMID) []Grant {
	var out []Grant
	for _, g := range h.shares {
		if g.From == id || g.To == id {
			out = append(out, *g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// addGrant stores an active grant and indexes its frames.
func (h *Hypervisor) addGrant(g *Grant) {
	h.shares[g.ID] = g
	h.granted.add(g)
}

// dropGrant forgets an ended grant and its frames' index entries.
func (h *Hypervisor) dropGrant(g *Grant) {
	delete(h.shares, g.ID)
	h.granted.drop(g)
}

// mapFrames maps pages into t at the contiguous window from ipa, one
// Map call per run of consecutive frames. On an error it unmaps what it
// mapped and returns the error.
func mapFrames(t *mmu.Table, ipa uint64, pages []mem.PA, perms mmu.Perms) error {
	var err error
	frameRuns(pages, func(i int, base mem.PA, n int) {
		if err == nil {
			err = t.Map(ipa+uint64(i)*mem.PageSize, uint64(base), uint64(n)*mem.PageSize, perms)
			if err != nil && i > 0 {
				_ = t.Unmap(ipa, uint64(i)*mem.PageSize)
			}
		}
	})
	return err
}

// ShareMemory implements the share/lend/donate hypercall, invoked by the
// owning VM (or the primary on its behalf). The region [ipa, ipa+size)
// must be page aligned, fully mapped in the sender's stage-2 and owned by
// the sender with no other active grant. On success the receiver gains a
// new mapping and its IPA is returned along with the grant ID.
func (h *Hypervisor) ShareMemory(kind ShareKind, from, to VMID, ipa, size uint64, perms mmu.Perms) (uint64, uint64, error) {
	if from == to {
		return 0, 0, fmt.Errorf("hafnium: cannot %v memory to self", kind)
	}
	src, ok := h.VM(from)
	if !ok {
		return 0, 0, ErrBadVM
	}
	dst, ok := h.VM(to)
	if !ok {
		return 0, 0, ErrBadVM
	}
	h.hypercall(kind.hypercall(), src)
	if size == 0 || ipa%mem.PageSize != 0 || size%mem.PageSize != 0 {
		return 0, 0, fmt.Errorf("hafnium: %v of unaligned region [%#x,+%#x)", kind, ipa, size)
	}
	if perms == 0 || !mmu.PermRWX.Allows(perms) {
		return 0, 0, fmt.Errorf("hafnium: invalid grant permissions %v", perms)
	}
	// TrustZone rule: memory must not flow from the secure world to a
	// non-secure VM (the reverse is fine — secure VMs may see NS memory).
	if src.spec.Secure && !dst.spec.Secure && dst.spec.Class != Primary {
		return 0, 0, fmt.Errorf("hafnium: %v of secure memory to non-secure VM %q", kind, dst.spec.Name)
	}

	pages, err := h.senderFrames(kind, src, ipa, size)
	if err != nil {
		return 0, 0, err
	}

	// Receiver mapping: frames are mapped contiguously at the receiver's
	// next share window even if physically scattered.
	toIPA := dst.nextShareIPA
	if err := mapFrames(dst.stage2, toIPA, pages, perms); err != nil {
		return 0, 0, fmt.Errorf("hafnium: %v: receiver mapping: %w", kind, err)
	}
	dst.nextShareIPA += size

	rollbackReceiver := func() {
		dst.stage2.Unmap(toIPA, size)
		dst.nextShareIPA -= size
	}
	switch kind {
	case MemLend:
		if err := src.stage2.Unmap(ipa, size); err != nil {
			rollbackReceiver()
			return 0, 0, fmt.Errorf("hafnium: lend: revoking owner access: %w", err)
		}
	case MemDonate:
		if err := src.stage2.Unmap(ipa, size); err != nil {
			rollbackReceiver()
			return 0, 0, fmt.Errorf("hafnium: donate: revoking owner access: %w", err)
		}
		frameRuns(pages, func(_ int, base mem.PA, n int) {
			h.owner.assign(base, base+mem.PA(n)*mem.PageSize, to)
		})
	}

	h.nextShareID++
	// Donation completes immediately: there is nothing to reclaim, so
	// only shares and lends are stored.
	if kind != MemDonate {
		h.addGrant(&Grant{
			ID: h.nextShareID, Kind: kind, From: from, To: to,
			Pages: pages, FromIPA: ipa, ToIPA: toIPA, Perms: perms,
		})
	}
	return toIPA, h.nextShareID, nil
}

// senderFrames collects the frames src's stage-2 maps at [ipa, ipa+size)
// in one walk of its leaf runs. Each page passes the checks in order: a
// stage-2 read, ownership by src, and no active grant. The first page
// that fails names the error. A window past the input space faults at
// the first page beyond it, even when its end wraps. The frame list
// grows only as pages pass, so an oversized request fails at its first
// unmapped page instead of sizing a slice from the caller's size.
func (h *Hypervisor) senderFrames(kind ShareKind, src *VM, ipa, size uint64) ([]mem.PA, error) {
	end := ipa + size
	if end < ipa || end > 1<<mmu.InputBits {
		end = 1 << mmu.InputBits
	}
	var (
		pages []mem.PA
		err   error
		next  = ipa // the first page not yet collected
	)
	src.stage2.Leaves(ipa, end, func(r mmu.Run) bool {
		// A hole or an unreadable run stops the walk at next.
		if r.In != next || !r.Perm.Allows(mmu.PermR) {
			return false
		}
		// Check the run by stretches of one owner, each up to its first
		// granted frame: the first page that fails either check is the
		// one a page-by-page loop would name.
		for pa, runEnd := mem.PA(r.Out), mem.PA(r.Out+r.Size); pa < runEnd; {
			owner, stop := h.owner.run(pa, runEnd)
			if owner != src.id {
				err = fmt.Errorf("hafnium: %v: frame %#x at IPA %#x is owned by VM %d, not the sender",
					kind, uint64(pa), r.In+uint64(pa)-r.Out, owner)
				return false
			}
			held, granted := h.granted.next(pa, stop)
			if granted {
				stop = max(pa, held.base)
			}
			for ; pa < stop; pa += mem.PageSize {
				pages = append(pages, pa)
			}
			if granted {
				err = fmt.Errorf("hafnium: %v: frame %#x already granted (grant %d)", kind, uint64(pa), held.g.ID)
				return false
			}
		}
		next += r.Size
		return true
	})
	if err == nil && next-ipa < size {
		// The page at next faults: TranslateIPA names the abort or
		// permission fault and counts it on src, once.
		_, err = src.TranslateIPA(next, mmu.PermR)
		err = fmt.Errorf("hafnium: %v: %w", kind, err)
	}
	if err != nil {
		return nil, err
	}
	return pages, nil
}

// ReclaimMemory ends a share or lend grant: the receiver loses its
// mapping and, for a lend, the owner's mapping is restored. Only the
// granting VM may reclaim.
func (h *Hypervisor) ReclaimMemory(by VMID, grantID uint64) error {
	g, ok := h.shares[grantID]
	if !ok {
		return fmt.Errorf("hafnium: no active grant %d", grantID)
	}
	if v, known := h.VM(by); known {
		h.hypercall(hcMemReclaim, v)
	}
	if g.From != by {
		return fmt.Errorf("hafnium: VM %d cannot reclaim grant %d owned by VM %d", by, grantID, g.From)
	}
	dst := h.vms[g.To]
	size := uint64(len(g.Pages)) * mem.PageSize
	if err := dst.stage2.Unmap(g.ToIPA, size); err != nil {
		return fmt.Errorf("hafnium: reclaim: %w", err)
	}
	if g.Kind == MemLend {
		if err := mapFrames(h.vms[g.From].stage2, g.FromIPA, g.Pages, mmu.PermRWX); err != nil {
			return fmt.Errorf("hafnium: reclaim: restoring owner mapping: %w", err)
		}
	}
	h.dropGrant(g)
	return nil
}

// VerifyIsolation is the invariant the whole design defends: every frame
// reachable through any VM's stage-2 tables is either owned by that VM,
// covered by an active grant to it, a device window it was assigned, or
// (for lends) NOT still reachable by the lender. It walks every leaf of
// every VM's stage-2 table as merged runs and checks each run by range,
// so its cost follows the runs, not the pages they map. It returns the
// first violation in VM order and, within a VM, IPA order, and is called
// from property tests after every hypercall sequence.
func (h *Hypervisor) VerifyIsolation() error {
	var err error
	for _, id := range h.order {
		vm := h.vms[id]
		vm.stage2.Leaves(0, 1<<mmu.InputBits, func(r mmu.Run) bool {
			err = h.checkRun(vm, mem.PA(r.Out), mem.PA(r.Out+r.Size))
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRun checks the frames [pa, end) that vm's stage-2 maps: the parts
// inside device regions against vm's MMIO windows, the rest against
// frame ownership.
func (h *Hypervisor) checkRun(vm *VM, pa, end mem.PA) error {
	for pa < end {
		stop, device := end, false
		if r, ok := h.node.Mem.Next(pa); ok && r.Base < end {
			if r.Base > pa {
				stop = r.Base
			} else {
				stop, device = min(end, r.End()), r.Attr.Device
			}
		}
		var err error
		if device {
			err = vm.checkDevice(pa, stop)
		} else {
			err = h.checkFrames(vm, pa, stop)
		}
		if err != nil {
			return err
		}
		pa = stop
	}
	return nil
}

// checkDevice requires the device frames [pa, end) to lie inside the
// VM's MMIO windows.
func (vm *VM) checkDevice(pa, end mem.PA) error {
next:
	for pa < end {
		for _, w := range vm.mmio {
			if w.Contains(pa, 1) {
				pa = min(end, w.End())
				continue next
			}
		}
		return fmt.Errorf("hafnium: VM %d maps device %#x it was never assigned", vm.id, uint64(mem.PageAlign(pa)))
	}
	return nil
}

// checkFrames checks the normal frames [pa, end) that vm maps, split at
// owner-extent boundaries, against the grant index run by run. Frames
// vm owns must not include one it has lent out; frames someone else
// owns must all be held by grants to vm.
func (h *Hypervisor) checkFrames(vm *VM, pa, end mem.PA) error {
	for pa < end {
		owner, stop := h.owner.run(pa, end)
		for f := pa; f < stop; {
			r, ok := h.granted.next(f, stop)
			if owner == vm.id {
				if !ok {
					break
				}
				if r.g.Kind == MemLend && r.g.From == vm.id {
					return fmt.Errorf("hafnium: VM %d still maps lent frame %#x", vm.id, uint64(max(f, r.base)))
				}
			} else if !ok || r.base > f || r.g.To != vm.id {
				return fmt.Errorf("hafnium: VM %d maps frame %#x owned by VM %d with no grant", vm.id, uint64(f), owner)
			}
			f = r.end
		}
		pa = stop
	}
	return nil
}
