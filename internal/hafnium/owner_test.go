package hafnium

import (
	"math/rand"
	"slices"
	"testing"

	"khsim/internal/mem"
	"khsim/internal/mmu"
)

// checkOwnerTable fails unless the table is sorted, non-overlapping, free
// of empty extents and of touching neighbours with the same owner.
func checkOwnerTable(t *testing.T, tab *ownerTable) {
	t.Helper()
	for i, e := range tab.ext {
		if e.base >= e.end {
			t.Fatalf("extent %d [%#x,%#x) is empty", i, uint64(e.base), uint64(e.end))
		}
		if i == 0 {
			continue
		}
		prev := tab.ext[i-1]
		if prev.end > e.base {
			t.Fatalf("extents %d and %d overlap or are unsorted: %+v %+v", i-1, i, prev, e)
		}
		if prev.end == e.base && prev.vm == e.vm {
			t.Fatalf("extents %d and %d could merge: %+v %+v", i-1, i, prev, e)
		}
	}
}

// TestOwnerTableMatchesPageMap drives the extent table and a per-page
// reference map with the same random assignments: VM-sized ranges, and
// single pages at extent starts, ends and interiors, half of them handed
// straight back to their old owner, which must merge the table back to
// exactly what it was.
func TestOwnerTableMatchesPageMap(t *testing.T) {
	const (
		page  = mem.PA(mem.PageSize)
		span  = 2048 // frames in the simulated physical window
		steps = 3000
	)
	rng := rand.New(rand.NewSource(1))
	var tab ownerTable
	ref := make(map[mem.PA]VMID)
	assign := func(base, end mem.PA, vm VMID) {
		tab.assign(base, end, vm)
		for pa := base; pa < end; pa += page {
			ref[pa] = vm
		}
		checkOwnerTable(t, &tab)
		for pa := base - page; pa <= end; pa += page {
			if got, want := tab.lookup(pa), ref[pa]; got != want {
				t.Fatalf("after assign [%#x,%#x) to %d: frame %#x owned by %d, want %d",
					uint64(base), uint64(end), vm, uint64(pa), got, want)
			}
		}
		// A run from either edge of the range stops at the first frame
		// with another owner, or at its limit.
		for _, pa := range []mem.PA{base - page, base, end - page, end} {
			limit := pa + 64*page
			owner, stop := tab.run(pa, limit)
			f := pa
			for f < limit && ref[f] == owner {
				f += page
			}
			if owner != ref[pa] || stop != f {
				t.Fatalf("run(%#x) = owner %d to %#x, want owner %d to %#x",
					uint64(pa), owner, uint64(stop), ref[pa], uint64(f))
			}
		}
	}
	for step := 0; step < steps; step++ {
		vm := VMID(1 + rng.Intn(5))
		op := rng.Intn(4)
		if op == 0 || len(tab.ext) == 0 {
			pages := 1 + rng.Intn(256)
			base := page * mem.PA(1+rng.Intn(span-pages))
			assign(base, base+page*mem.PA(pages), vm)
			continue
		}
		e := tab.ext[rng.Intn(len(tab.ext))]
		var pa mem.PA
		switch op {
		case 1:
			pa = e.base
		case 2:
			pa = e.end - page
		default:
			pa = e.base + page*mem.PA(rng.Int63n(int64((e.end-e.base)/page)))
		}
		old := tab.lookup(pa)
		before := slices.Clone(tab.ext)
		assign(pa, pa+page, vm)
		if rng.Intn(2) == 0 {
			assign(pa, pa+page, old)
			if !slices.Equal(tab.ext, before) {
				t.Fatalf("handing frame %#x back to %d left %v, want %v", uint64(pa), old, tab.ext, before)
			}
		}
	}
	if len(tab.ext) < 2 {
		t.Fatalf("only %d extents after %d steps: the walk never split the table", len(tab.ext), steps)
	}
}

// TestRestoreRewindsDonation forks back across a donation and a reclaim:
// the restored hypervisor must report the donor as the frame's owner
// again, hold the reclaimed share again (its frame index rebuilt, or
// VerifyIsolation would reject the receiver's mapping) and pass
// VerifyIsolation; a second fork-and-donate must end exactly where the
// first did.
func TestRestoreRewindsDonation(t *testing.T) {
	h, a, b := shareSystem(t)
	node := h.Node()
	base, _ := a.RAM()
	pa, err := a.TranslateIPA(base, mmu.PermR)
	if err != nil {
		t.Fatal(err)
	}
	_, shared, err := h.ShareMemory(MemShare, a.ID(), b.ID(), base+mem.PageSize, mem.PageSize, mmu.PermR)
	if err != nil {
		t.Fatal(err)
	}
	snap := node.Snapshot()
	var donated []extent
	for round := 0; round < 2; round++ {
		if err := h.ReclaimMemory(a.ID(), shared); err != nil {
			t.Fatalf("round %d: reclaim: %v", round, err)
		}
		if _, _, err := h.ShareMemory(MemDonate, a.ID(), b.ID(), base, mem.PageSize, mmu.PermRW); err != nil {
			t.Fatalf("round %d: donate: %v", round, err)
		}
		if h.FrameOwner(pa) != b.ID() {
			t.Fatalf("round %d: donated frame owned by %d, want %d", round, h.FrameOwner(pa), b.ID())
		}
		if round == 0 {
			donated = slices.Clone(h.owner.ext)
		} else if !slices.Equal(h.owner.ext, donated) {
			t.Fatalf("second donation left owners %v, first left %v", h.owner.ext, donated)
		}
		node.Fork(snap)
		if got := h.FrameOwner(pa); got != a.ID() {
			t.Fatalf("round %d: after restore frame owned by %d, want donor %d", round, got, a.ID())
		}
		if g := h.Grants(a.ID()); len(g) != 1 || g[0].ID != shared {
			t.Fatalf("round %d: after restore grants %v, want only grant %d", round, g, shared)
		}
		if err := h.VerifyIsolation(); err != nil {
			t.Fatalf("round %d: after restore: %v", round, err)
		}
	}
}
