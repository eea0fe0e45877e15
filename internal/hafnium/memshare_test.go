package hafnium

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"khsim/internal/machine"
	"khsim/internal/mem"
	"khsim/internal/metrics"
	"khsim/internal/mmu"
	"khsim/internal/sim"
	"khsim/internal/tz"
)

const shareManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 64

[vm a]
class = secondary
vcpus = 1
memory_mb = 64

[vm b]
class = secondary
vcpus = 1
memory_mb = 64
`

func shareSystem(t *testing.T) (*Hypervisor, *VM, *VM) {
	t.Helper()
	ga := &stubGuest{workChunk: sim.FromMicros(1), chunks: 1}
	gb := &stubGuest{workChunk: sim.FromMicros(1), chunks: 1}
	h, _ := buildTestSystem(t, shareManifest, map[string]GuestOS{"a": ga, "b": gb})
	a, _ := h.VMByName("a")
	b, _ := h.VMByName("b")
	return h, a, b
}

func TestShareGrantsReceiverAccess(t *testing.T) {
	h, a, b := shareSystem(t)
	base, _ := a.RAM()
	toIPA, id, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base, 4*mem.PageSize, mmu.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides now translate to the same frames.
	paA, err := a.TranslateIPA(base, mmu.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	paB, err := b.TranslateIPA(toIPA, mmu.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if paA != paB {
		t.Fatalf("share not aliased: %#x vs %#x", uint64(paA), uint64(paB))
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
	// Receiver cannot execute if only RW granted.
	if _, err := b.TranslateIPA(toIPA, mmu.PermX); err == nil {
		t.Fatal("execute through RW grant allowed")
	}
	if len(h.Grants(a.ID())) != 1 || len(h.Grants(b.ID())) != 1 {
		t.Fatal("grants not visible")
	}
	// Reclaim removes receiver access.
	if err := h.ReclaimMemory(a.ID(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.TranslateIPA(toIPA, mmu.PermR); err == nil {
		t.Fatal("receiver kept access after reclaim")
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
}

func TestLendRevokesOwnerAccess(t *testing.T) {
	h, a, b := shareSystem(t)
	base, _ := a.RAM()
	toIPA, id, err := h.ShareMemory(MemLend, a.ID(), b.ID(), base+mem.PageSize, 2*mem.PageSize, mmu.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TranslateIPA(base+mem.PageSize, mmu.PermR); err == nil {
		t.Fatal("lender kept access to lent pages")
	}
	if _, err := b.TranslateIPA(toIPA, mmu.PermW); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
	// Reclaim restores the owner.
	if err := h.ReclaimMemory(a.ID(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := a.TranslateIPA(base+mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal("owner access not restored after reclaim")
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
}

func TestDonateTransfersOwnership(t *testing.T) {
	h, a, b := shareSystem(t)
	base, _ := a.RAM()
	paBefore, _ := a.TranslateIPA(base, mmu.PermR)
	toIPA, donation, err := h.ShareMemory(MemDonate, a.ID(), b.ID(), base, mem.PageSize, mmu.PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	if h.FrameOwner(paBefore) != b.ID() {
		t.Fatal("ownership not transferred")
	}
	if _, err := a.TranslateIPA(base, mmu.PermR); err == nil {
		t.Fatal("donor kept access")
	}
	if pa, err := b.TranslateIPA(toIPA, mmu.PermRWX); err != nil || pa != paBefore {
		t.Fatalf("receiver access: %v %#x", err, uint64(pa))
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
	// Donation is permanent: no reclaim.
	if err := h.ReclaimMemory(a.ID(), donation); err == nil {
		t.Fatal("reclaim of donation accepted")
	}
	// New owner can re-grant it.
	if _, _, err := h.ShareMemory(MemShare, b.ID(), a.ID(), toIPA, mem.PageSize, mmu.PermR); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
}

func TestShareValidation(t *testing.T) {
	h, a, b := shareSystem(t)
	base, size := a.RAM()
	cases := []struct {
		name string
		fn   func() error
	}{
		{"self", func() error {
			_, _, err := h.ShareMemory(MemShare, a.ID(), a.ID(), base, mem.PageSize, mmu.PermR)
			return err
		}},
		{"bad sender", func() error {
			_, _, err := h.ShareMemory(MemShare, VMID(99), b.ID(), base, mem.PageSize, mmu.PermR)
			return err
		}},
		{"bad receiver", func() error {
			_, _, err := h.ShareMemory(MemShare, a.ID(), VMID(99), base, mem.PageSize, mmu.PermR)
			return err
		}},
		{"unaligned", func() error {
			_, _, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base+1, mem.PageSize, mmu.PermR)
			return err
		}},
		{"zero size", func() error {
			_, _, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base, 0, mmu.PermR)
			return err
		}},
		{"no perms", func() error {
			_, _, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base, mem.PageSize, 0)
			return err
		}},
		{"unmapped", func() error {
			_, _, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base+size, mem.PageSize, mmu.PermR)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.fn(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Not the owner: a re-shares a frame it received from b. The frame
	// is mapped in a's stage-2, but b owns it.
	bBase, _ := b.RAM()
	received, _, err := h.ShareMemory(MemShare, b.ID(), a.ID(), bBase, mem.PageSize, mmu.PermR)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ShareMemory(MemShare, a.ID(), b.ID(), received, mem.PageSize, mmu.PermR); err == nil ||
		!strings.Contains(err.Error(), "not the sender") {
		t.Errorf("re-share of a received frame: %v, want an error saying the frame is not the sender's", err)
	}
	// Double grant of the same frames.
	_, grantID, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base, mem.PageSize, mmu.PermR)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base, mem.PageSize, mmu.PermR); err == nil {
		t.Error("double grant accepted")
	}
	// Reclaim authorization.
	if err := h.ReclaimMemory(b.ID(), grantID); err == nil {
		t.Error("receiver reclaimed a grant")
	}
	if err := h.ReclaimMemory(a.ID(), 9999); err == nil {
		t.Error("phantom reclaim accepted")
	}
}

// TestVerifyIsolationDetectsForgedMappings forges each kind of isolation
// violation directly in a VM's stage-2 table, bypassing the hypercalls
// that would refuse it, and requires VerifyIsolation to name it.
func TestVerifyIsolationDetectsForgedMappings(t *testing.T) {
	const (
		noGrant = "with no grant"
		device  = "maps device"
		lent    = "still maps lent frame"
	)
	cases := []struct {
		name  string
		want  string
		forge func(t *testing.T, h *Hypervisor, a, b *VM) error
	}{
		{"foreign frame without a grant", noGrant, func(t *testing.T, h *Hypervisor, a, b *VM) error {
			base, _ := a.RAM()
			pb, err := b.TranslateIPA(base, mmu.PermR)
			if err != nil {
				return err
			}
			if err := a.stage2.Unmap(base, mem.PageSize); err != nil {
				return err
			}
			return a.stage2.Map(base, uint64(pb), mem.PageSize, mmu.PermRW)
		}},
		{"unassigned device window", device, func(t *testing.T, h *Hypervisor, a, b *VM) error {
			uart, ok := h.node.Mem.FindName("uart")
			if !ok {
				t.Fatal("node has no uart")
			}
			if err := a.stage2.Map(a.nextShareIPA, uint64(uart.Base), mem.PageSize, mmu.PermRW); err != nil {
				return err
			}
			a.nextShareIPA += mem.PageSize
			return nil
		}},
		{"foreign frame far above the share window", noGrant, func(t *testing.T, h *Hypervisor, a, b *VM) error {
			base, _ := b.RAM()
			pb, err := b.TranslateIPA(base, mmu.PermR)
			if err != nil {
				return err
			}
			return a.stage2.Map(1<<38, uint64(pb), mem.PageSize, mmu.PermRW)
		}},
		{"device window at the share cursor", device, func(t *testing.T, h *Hypervisor, a, b *VM) error {
			uart, ok := h.node.Mem.FindName("uart")
			if !ok {
				t.Fatal("node has no uart")
			}
			return a.stage2.Map(a.nextShareIPA, uint64(uart.Base), mem.PageSize, mmu.PermRW)
		}},
		{"lender re-maps a lent frame", lent, func(t *testing.T, h *Hypervisor, a, b *VM) error {
			base, _ := a.RAM()
			pa, err := a.TranslateIPA(base, mmu.PermR)
			if err != nil {
				return err
			}
			if _, _, err := h.ShareMemory(MemLend, a.ID(), b.ID(), base, mem.PageSize, mmu.PermRW); err != nil {
				return err
			}
			return a.stage2.Map(base, uint64(pa), mem.PageSize, mmu.PermRW)
		}},
		{"donor re-maps a donated frame", noGrant, func(t *testing.T, h *Hypervisor, a, b *VM) error {
			base, _ := a.RAM()
			pa, err := a.TranslateIPA(base, mmu.PermR)
			if err != nil {
				return err
			}
			if _, _, err := h.ShareMemory(MemDonate, a.ID(), b.ID(), base, mem.PageSize, mmu.PermRW); err != nil {
				return err
			}
			return a.stage2.Map(base, uint64(pa), mem.PageSize, mmu.PermRW)
		}},
		{"receiver re-maps after reclaim", noGrant, func(t *testing.T, h *Hypervisor, a, b *VM) error {
			base, _ := a.RAM()
			pa, err := a.TranslateIPA(base, mmu.PermR)
			if err != nil {
				return err
			}
			toIPA, id, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base, mem.PageSize, mmu.PermRW)
			if err != nil {
				return err
			}
			if err := h.ReclaimMemory(a.ID(), id); err != nil {
				return err
			}
			return b.stage2.Map(toIPA, uint64(pa), mem.PageSize, mmu.PermRW)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, a, b := shareSystem(t)
			if err := h.VerifyIsolation(); err != nil {
				t.Fatalf("clean system: %v", err)
			}
			if err := c.forge(t, h, a, b); err != nil {
				t.Fatalf("forging the mapping: %v", err)
			}
			err := h.VerifyIsolation()
			if err == nil {
				t.Fatal("VerifyIsolation accepted the forged mapping")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("VerifyIsolation = %q, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestShareMemoryRejectsOversizedRegion asks to share 64 GiB out of a
// 64 MiB VM. The call must fail at the first unmapped page, counting one
// stage-2 fault, without sizing anything from the requested size.
func TestShareMemoryRejectsOversizedRegion(t *testing.T) {
	h, a, b := shareSystem(t)
	base, ram := a.RAM()
	faults := h.node.Metrics.Counter(metrics.K("el2", "stage2_faults").WithVM(a.Name()))
	f0 := faults.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base, 1<<36, mmu.PermRW)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a 64 GiB share of a 64 MiB VM was accepted")
	}
	if want := fmt.Sprintf("abort at IPA %#x", base+ram); !strings.Contains(err.Error(), want) {
		t.Errorf("ShareMemory = %q, want the first unmapped page (%s)", err, want)
	}
	if got := faults.Value() - f0; got != 1 {
		t.Errorf("the failed share counted %d stage-2 faults, want 1", got)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("the failed share allocated %d bytes, want under 1 MiB", got)
	}
}

// perPageFrames is ShareMemory's frame collection as a per-page loop:
// each page of the window is translated on its own, then checked for
// ownership by src and, through the grant index's lookup, for an active
// grant.
func perPageFrames(h *Hypervisor, kind ShareKind, src *VM, ipa, size uint64) ([]mem.PA, error) {
	var pages []mem.PA
	for off := uint64(0); off < size; off += mem.PageSize {
		pa, err := src.TranslateIPA(ipa+off, mmu.PermR)
		if err != nil {
			return nil, fmt.Errorf("hafnium: %v: %w", kind, err)
		}
		if owner := h.owner.lookup(pa); owner != src.id {
			return nil, fmt.Errorf("hafnium: %v: frame %#x at IPA %#x is owned by VM %d, not the sender",
				kind, uint64(pa), ipa+off, owner)
		}
		if g := h.granted.lookup(pa); g != nil {
			return nil, fmt.Errorf("hafnium: %v: frame %#x already granted (grant %d)", kind, uint64(pa), g.ID)
		}
		pages = append(pages, pa)
	}
	return pages, nil
}

// TestQuickShareCollectMatchesPerPage checks ShareMemory's leaf-run
// frame collection against the per-page loop. The sender's stage-2 gets
// a random layout: 2 MiB blocks and pages, holes, pages without read
// permission, frames received from a third VM, frames already granted
// and own frames aliased just below the top of the 48-bit input space.
// Random windows, some past the input space and some whose end wraps
// uint64, must give the same error text, the same count of stage-2
// faults on the sender and the same frames, in order, in the grant.
func TestQuickShareCollectMatchesPerPage(t *testing.T) {
	const manifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 64

[vm a]
class = secondary
vcpus = 1
memory_mb = 8

[vm b]
class = secondary
vcpus = 1
memory_mb = 8

[vm c]
class = secondary
vcpus = 1
memory_mb = 8
`
	const top = uint64(1) << mmu.InputBits
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		guests := map[string]GuestOS{}
		for _, name := range []string{"a", "b", "c"} {
			guests[name] = &stubGuest{workChunk: 1, chunks: 1}
		}
		h, _ := buildTestSystem(t, manifest, guests)
		a, _ := h.VMByName("a")
		b, _ := h.VMByName("b")
		c, _ := h.VMByName("c")
		base, ram := a.RAM()
		page := func() uint64 { return base + uint64(rng.Intn(int(ram/mem.PageSize)))*mem.PageSize }
		pages := func(max int) uint64 { return uint64(1+rng.Intn(max)) * mem.PageSize }

		// Layout. Errors are expected (a hole unmapped twice, a grant of
		// a page already lent) and leave the table as it was.
		for i := rng.Intn(4); i > 0; i-- {
			_ = a.stage2.Unmap(page(), pages(4)) // holes; they split blocks
		}
		for i := rng.Intn(3); i > 0; i-- {
			_ = a.stage2.Protect(page(), pages(2), mmu.PermW)
		}
		cBase, _ := c.RAM()
		if _, _, err := h.ShareMemory(MemShare, c.ID(), a.ID(), cBase, pages(4), mmu.PermRW); err != nil {
			t.Fatal(err)
		}
		_, _, _ = h.ShareMemory(MemShare, a.ID(), b.ID(), page(), pages(3), mmu.PermR)
		if rng.Intn(2) == 0 {
			for i := uint64(1); i <= 4; i++ {
				if pa, err := a.TranslateIPA(base+i*mem.PageSize, mmu.PermR); err == nil {
					_ = a.stage2.Map(top-i*mem.PageSize, uint64(pa), mem.PageSize, mmu.PermRW)
				}
			}
		}

		window := func() (uint64, uint64) {
			switch rng.Intn(6) {
			case 0: // a's share window: frames c owns
				return shareIPABase + uint64(rng.Intn(4))*mem.PageSize, pages(6)
			case 1: // past the input space
				return top - uint64(rng.Intn(6))*mem.PageSize, pages(8)
			case 2: // the end wraps uint64
				ipa := top - pages(4)
				if rng.Intn(2) == 0 {
					ipa = -pages(4)
				}
				return ipa, -ipa + pages(4)
			case 3: // long, across block boundaries
				return page(), pages(1024)
			default:
				return page(), pages(8)
			}
		}
		faults := h.node.Metrics.Counter(metrics.K("el2", "stage2_faults").WithVM(a.Name()))
		for i := 0; i < 8; i++ {
			ipa, size := window()
			kind := ShareKind(rng.Intn(3))
			f0 := faults.Value()
			want, wantErr := perPageFrames(h, kind, a, ipa, size)
			wantFaults := faults.Value() - f0
			f1 := faults.Value()
			toIPA, _, err := h.ShareMemory(kind, a.ID(), b.ID(), ipa, size, mmu.PermR)
			gotFaults := faults.Value() - f1
			if errText(err) != errText(wantErr) || gotFaults != wantFaults {
				t.Logf("seed %d: %v [%#x,+%#x): error %q with %d stage-2 faults, per-page loop %q with %d",
					seed, kind, ipa, size, errText(err), gotFaults, errText(wantErr), wantFaults)
				return false
			}
			for j, pa := range want {
				if out, _, _, ok := b.stage2.Translate(toIPA + uint64(j)*mem.PageSize); !ok || out != uint64(pa) {
					t.Logf("seed %d: %v [%#x,+%#x): grant page %d maps %#x (%v), per-page loop %#x",
						seed, kind, ipa, size, j, out, ok, uint64(pa))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestShareReclaimAllocBudget bounds the host memory a warm share+reclaim
// cycle of four pages allocates. The receiver's window lands at an
// advancing cursor, so each cycle needs the table nodes the previous
// reclaim pruned; the table recycles them instead of allocating.
func TestShareReclaimAllocBudget(t *testing.T) {
	const (
		warm, cycles = 64, 512
		budget       = 1024 // bytes per cycle
	)
	for _, kind := range []ShareKind{MemShare, MemLend} {
		t.Run(kind.String(), func(t *testing.T) {
			h, a, b := shareSystem(t)
			base, _ := a.RAM()
			cycle := func() {
				_, id, err := h.ShareMemory(kind, a.ID(), b.ID(), base, 4*mem.PageSize, mmu.PermRW)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.ReclaimMemory(a.ID(), id); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warm; i++ {
				cycle()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < cycles; i++ {
				cycle()
			}
			runtime.ReadMemStats(&m1)
			per := float64(m1.TotalAlloc-m0.TotalAlloc) / cycles
			t.Logf("%.0f bytes per %v+reclaim cycle", per, kind)
			if per > budget {
				t.Errorf("a warm 4-page %v+reclaim cycle allocates %.0f bytes, budget %d", kind, per, budget)
			}
		})
	}
}

func TestSecureWorldShareRules(t *testing.T) {
	manifest := `
[vm primary]
class = primary
vcpus = 4
memory_mb = 64

[vm svm]
class = secondary
vcpus = 1
memory_mb = 64
secure = true

[vm nvm]
class = secondary
vcpus = 1
memory_mb = 64
`
	m, err := ParseManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	node := machine.MustNew(machine.PineA64Config(7))
	monitor := tz.NewMonitor(node.Mem, len(node.Cores), false)
	h, err := New(node, m, monitor)
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPrimary{t: t, h: h, node: node, handlerCost: sim.FromMicros(5), evict: 8}
	h.AttachPrimary(p)
	svm, _ := h.VMByName("svm")
	nvm, _ := h.VMByName("nvm")
	h.AttachGuest(svm.ID(), &stubGuest{workChunk: 1, chunks: 1})
	h.AttachGuest(nvm.ID(), &stubGuest{workChunk: 1, chunks: 1})
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	// The monitor froze with the secure carve-out in place.
	if !monitor.Frozen() || len(monitor.SecureRegions()) != 1 {
		t.Fatal("secure partition not configured at boot")
	}
	// The secure VM's frames live in the secure world.
	base, _ := svm.RAM()
	pa, err := svm.TranslateIPA(base, mmu.PermR)
	if err != nil {
		t.Fatal(err)
	}
	if monitor.WorldOf(pa) != tz.Secure {
		t.Fatal("secure VM backed by non-secure frames")
	}
	if monitor.CanAccess(tz.NonSecure, pa, mem.PageSize) {
		t.Fatal("non-secure world can touch secure VM memory")
	}
	// Secure → non-secure sharing is forbidden.
	if _, _, err := h.ShareMemory(MemShare, svm.ID(), nvm.ID(), base, mem.PageSize, mmu.PermR); err == nil {
		t.Fatal("secure→non-secure share accepted")
	}
	// Non-secure → secure sharing is allowed.
	nbase, _ := nvm.RAM()
	if _, _, err := h.ShareMemory(MemShare, nvm.ID(), svm.ID(), nbase, mem.PageSize, mmu.PermR); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
	// Requesting a secure VM without a monitor fails at build time.
	if _, err := New(machine.MustNew(machine.PineA64Config(8)), m, nil); err == nil {
		t.Fatal("secure VM without monitor accepted")
	}
}

// Property: arbitrary interleavings of share/lend/donate/reclaim between
// two VMs never break the isolation invariant, and every operation's
// success/failure leaves the system self-consistent.
func TestQuickShareIsolationInvariant(t *testing.T) {
	type op struct {
		Kind    uint8
		FromA   bool
		PageOff uint8
		Pages   uint8
		Reclaim bool
	}
	f := func(ops []op) bool {
		ga := &stubGuest{workChunk: 1, chunks: 1}
		gb := &stubGuest{workChunk: 1, chunks: 1}
		h, _ := buildTestSystem(t, shareManifest, map[string]GuestOS{"a": ga, "b": gb})
		a, _ := h.VMByName("a")
		b, _ := h.VMByName("b")
		base, _ := a.RAM()
		var grants []struct {
			id uint64
			by VMID
		}
		for _, o := range ops {
			if o.Reclaim && len(grants) > 0 {
				g := grants[0]
				grants = grants[1:]
				h.ReclaimMemory(g.by, g.id)
			} else {
				from, to := a, b
				if !o.FromA {
					from, to = b, a
				}
				kind := ShareKind(o.Kind % 3)
				ipa := base + uint64(o.PageOff%64)*mem.PageSize
				size := (uint64(o.Pages%4) + 1) * mem.PageSize
				if _, id, err := h.ShareMemory(kind, from.ID(), to.ID(), ipa, size, mmu.PermRW); err == nil && kind != MemDonate {
					grants = append(grants, struct {
						id uint64
						by VMID
					}{id, from.ID()})
				}
			}
			if err := h.VerifyIsolation(); err != nil {
				t.Logf("isolation violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
