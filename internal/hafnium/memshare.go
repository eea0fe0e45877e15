package hafnium

import (
	"fmt"

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

type shareRecord struct {
	Grant
	active bool
}

// Grants returns the active grants involving the VM (as sender or
// receiver).
func (h *Hypervisor) Grants(id VMID) []Grant {
	var out []Grant
	for _, r := range h.shares {
		if r.active && (r.From == id || r.To == id) {
			out = append(out, r.Grant)
		}
	}
	return out
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
	src, ok := h.vms[from]
	if !ok {
		return 0, 0, ErrBadVM
	}
	dst, ok := h.vms[to]
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

	// Walk the sender's stage-2 to collect the frames, verifying
	// ownership and exclusivity page by page.
	npages := size / mem.PageSize
	pages := make([]mem.PA, 0, npages)
	for off := uint64(0); off < size; off += mem.PageSize {
		pa, err := src.TranslateIPA(ipa+off, mmu.PermR)
		if err != nil {
			return 0, 0, fmt.Errorf("hafnium: %v: %w", kind, err)
		}
		if h.owner[pa] != from {
			return 0, 0, fmt.Errorf("hafnium: %v: frame %#x at IPA %#x is owned by VM %d, not the sender",
				kind, uint64(pa), ipa+off, h.owner[pa])
		}
		for _, r := range h.shares {
			if !r.active {
				continue
			}
			for _, p := range r.Pages {
				if p == pa {
					return 0, 0, fmt.Errorf("hafnium: %v: frame %#x already granted (grant %d)", kind, uint64(pa), r.ID)
				}
			}
		}
		pages = append(pages, pa)
	}

	// Receiver mapping: frames are mapped contiguously at the receiver's
	// next share window even if physically scattered.
	toIPA := dst.nextShareIPA
	for i, pa := range pages {
		if err := dst.stage2.Map(toIPA+uint64(i)*mem.PageSize, uint64(pa), mem.PageSize, perms); err != nil {
			// Roll back partial receiver mappings.
			for j := 0; j < i; j++ {
				dst.stage2.Unmap(toIPA+uint64(j)*mem.PageSize, mem.PageSize)
			}
			return 0, 0, fmt.Errorf("hafnium: %v: receiver mapping: %w", kind, err)
		}
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
		for _, pa := range pages {
			h.owner[pa] = to
		}
		h.touchOwner()
	}

	h.nextShareID++
	rec := &shareRecord{
		Grant: Grant{
			ID: h.nextShareID, Kind: kind, From: from, To: to,
			Pages: pages, FromIPA: ipa, ToIPA: toIPA, Perms: perms,
		},
		active: true,
	}
	// Donation completes immediately: there is nothing to reclaim.
	if kind == MemDonate {
		rec.active = false
	}
	h.shares[rec.ID] = rec
	return toIPA, rec.ID, nil
}

// ReclaimMemory ends a share or lend grant: the receiver loses its
// mapping and, for a lend, the owner's mapping is restored. Only the
// granting VM may reclaim.
func (h *Hypervisor) ReclaimMemory(by VMID, grantID uint64) error {
	rec, ok := h.shares[grantID]
	if !ok || !rec.active {
		return fmt.Errorf("hafnium: no active grant %d", grantID)
	}
	if v, known := h.vms[by]; known {
		h.hypercall(hcMemReclaim, v)
	}
	if rec.From != by {
		return fmt.Errorf("hafnium: VM %d cannot reclaim grant %d owned by VM %d", by, grantID, rec.From)
	}
	dst := h.vms[rec.To]
	size := uint64(len(rec.Pages)) * mem.PageSize
	if err := dst.stage2.Unmap(rec.ToIPA, size); err != nil {
		return fmt.Errorf("hafnium: reclaim: %w", err)
	}
	if rec.Kind == MemLend {
		src := h.vms[rec.From]
		for i, pa := range rec.Pages {
			if err := src.stage2.Map(rec.FromIPA+uint64(i)*mem.PageSize, uint64(pa), mem.PageSize, mmu.PermRWX); err != nil {
				return fmt.Errorf("hafnium: reclaim: restoring owner mapping: %w", err)
			}
		}
	}
	rec.active = false
	return nil
}

// VerifyIsolation is the invariant the whole design defends: every frame
// reachable through any VM's stage-2 tables is either owned by that VM,
// covered by an active grant to it, a device window it was assigned, or
// (for lends) NOT still reachable by the lender. It returns the first
// violation found, and is called from property tests after every
// hypercall sequence.
func (h *Hypervisor) VerifyIsolation() error {
	for _, id := range h.order {
		vm := h.vms[id]
		ram, size := vm.RAM()
		check := func(ipa uint64) error {
			pa64, _, _, ok := vm.stage2.Translate(ipa)
			if !ok {
				return nil
			}
			pa := mem.PageAlign(mem.PA(pa64))
			if r, found := h.node.Mem.Find(pa); found && r.Attr.Device {
				for _, w := range vm.mmio {
					if w.Contains(pa, 1) {
						return nil
					}
				}
				return fmt.Errorf("hafnium: VM %d maps device %#x it was never assigned", id, uint64(pa))
			}
			if h.owner[pa] == id {
				// Owned — but a lent-out frame must not be reachable.
				for _, rec := range h.shares {
					if rec.active && rec.Kind == MemLend && rec.From == id {
						for _, p := range rec.Pages {
							if p == pa {
								return fmt.Errorf("hafnium: VM %d still maps lent frame %#x", id, uint64(pa))
							}
						}
					}
				}
				return nil
			}
			for _, rec := range h.shares {
				if rec.active && rec.To == id {
					for _, p := range rec.Pages {
						if p == pa {
							return nil
						}
					}
				}
			}
			return fmt.Errorf("hafnium: VM %d maps frame %#x owned by VM %d with no grant", id, uint64(pa), h.owner[pa])
		}
		// Probe the RAM window and the share window densely enough to
		// catch any leaf (page granularity).
		for off := uint64(0); off < size; off += mem.PageSize {
			if err := check(ram + off); err != nil {
				return err
			}
		}
		for ipa := shareIPABase; ipa < vm.nextShareIPA; ipa += mem.PageSize {
			if err := check(ipa); err != nil {
				return err
			}
		}
	}
	return nil
}
