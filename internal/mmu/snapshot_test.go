package mmu

import "testing"

// golden records every mapped page of a table for later comparison.
func tableGolden(t *Table, lo, hi uint64) map[uint64][2]uint64 {
	g := make(map[uint64][2]uint64)
	for a := lo; a < hi; a += GranuleSize {
		if out, perm, _, ok := t.Translate(a); ok {
			g[a] = [2]uint64{out, uint64(perm)}
		}
	}
	return g
}

func checkGolden(t *testing.T, tab *Table, golden map[uint64][2]uint64, lo, hi uint64) {
	t.Helper()
	for a := lo; a < hi; a += GranuleSize {
		out, perm, _, ok := tab.Translate(a)
		want, mapped := golden[a]
		if ok != mapped {
			t.Fatalf("addr %#x: mapped=%v, want %v", a, ok, mapped)
		}
		if ok && (out != want[0] || uint64(perm) != want[1]) {
			t.Fatalf("addr %#x: got (%#x,%v), want (%#x,%v)", a, out, perm, want[0], Perms(want[1]))
		}
	}
}

// TestTableSnapshotIsolation: mutations after a snapshot must not leak
// into the snapshot, and Restore must bring back the exact mappings.
func TestTableSnapshotIsolation(t *testing.T) {
	tab := NewTable("s2")
	const lo, hi = 0x4000_0000, 0x4040_0000 // 4 MiB probe window
	if err := tab.Map(0x4000_0000, 0x8000_0000, 0x20_0000, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := tab.Map(0x4020_0000, 0x9000_0000, 0x1_0000, PermRW); err != nil {
		t.Fatal(err)
	}
	golden := tableGolden(tab, lo, hi)
	nodes, mapped := tab.Nodes(), tab.MappedBytes()

	snap := tab.Snapshot()

	// Diverge hard: punch holes in the block (forces a split), remap with
	// different outputs and perms, extend the mapping.
	if err := tab.Unmap(0x4000_1000, 0x3000); err != nil {
		t.Fatal(err)
	}
	if err := tab.Map(0x4000_1000, 0xa000_0000, 0x1000, PermR); err != nil {
		t.Fatal(err)
	}
	if err := tab.Protect(0x4020_0000, 0x1000, PermR); err != nil {
		t.Fatal(err)
	}
	if err := tab.Map(0x4030_0000, 0xb000_0000, 0x2000, PermRX); err != nil {
		t.Fatal(err)
	}

	tab.Restore(snap)
	checkGolden(t, tab, golden, lo, hi)
	if tab.Nodes() != nodes || tab.MappedBytes() != mapped {
		t.Fatalf("accounting after restore: nodes=%d/%d mapped=%d/%d",
			tab.Nodes(), nodes, tab.MappedBytes(), mapped)
	}

	// Fork twice from the same snapshot with different divergences; each
	// fork sees base + its own changes only.
	if err := tab.Unmap(0x4020_0000, 0x1000); err != nil {
		t.Fatal(err)
	}
	tab.Restore(snap)
	checkGolden(t, tab, golden, lo, hi) // fork 1's unmap invisible
	if err := tab.Map(0x4030_0000, 0xc000_0000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	if out, _, _, ok := tab.Translate(0x4030_0000); !ok || out != 0xc000_0000 {
		t.Fatalf("fork 2 mutation lost: ok=%v out=%#x", ok, out)
	}
}

// TestTableSnapshotGenMonotonic: Restore must never reuse a generation a
// cache may have observed.
func TestTableSnapshotGenMonotonic(t *testing.T) {
	tab := NewTable("s2")
	snap := tab.Snapshot()
	if err := tab.Map(0x1000, 0x2000, 0x1000, PermRW); err != nil {
		t.Fatal(err)
	}
	g1 := tab.Gen()
	tab.Restore(snap)
	if tab.Gen() <= g1 {
		t.Fatalf("gen rolled back: %d after restore, %d before", tab.Gen(), g1)
	}
	tab.Restore(snap)
	if tab.Gen() <= g1+1 {
		t.Fatalf("gen not strictly monotonic across restores: %d", tab.Gen())
	}
}

// TestTableSnapshotCoWSharing: a snapshot+restore cycle with a small
// divergence must copy only the dirtied path, not the whole tree. The
// proxy: node accounting stays exact and restores are O(1) (no rebuild),
// which the harness fork benchmark quantifies; here we pin the sharing
// semantics — the same frozen node serves both timelines until written.
func TestTableSnapshotCoWSharing(t *testing.T) {
	tab := NewTable("s2")
	// 64 MiB of 2 MiB blocks: 32 block entries in one level-2 node.
	if err := tab.Map(0x4000_0000, 0x8000_0000, 64<<20, PermRWX); err != nil {
		t.Fatal(err)
	}
	snap := tab.Snapshot()
	rootBefore := tab.root

	// A read never copies.
	if _, _, _, ok := tab.Translate(0x4000_0000); !ok {
		t.Fatal("probe unmapped")
	}
	if tab.root != rootBefore {
		t.Fatal("Translate copied the root of a frozen tree")
	}

	// A write copies the path (root..level-2 node) but shares siblings.
	if err := tab.Unmap(0x4000_0000, BlockSizeL2); err != nil {
		t.Fatal(err)
	}
	if tab.root == rootBefore {
		t.Fatal("mutation wrote through a frozen root")
	}

	tab.Restore(snap)
	if out, _, _, ok := tab.Translate(0x4000_0000); !ok || out != 0x8000_0000 {
		t.Fatalf("snapshot lost its first block: ok=%v out=%#x", ok, out)
	}
}

// TestTLBSnapshotRestore checks TLB deep-copy semantics.
func TestTLBSnapshotRestore(t *testing.T) {
	tlb, err := NewTLB(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	tag := TLBTag{ASID: 1, VMID: 2}
	tlb.Insert(tag, 0x1000, 0x8000, PermRW)
	tlb.Insert(tag, 0x2000, 0x9000, PermR)
	snap := tlb.Snapshot()
	statsAt := tlb.Stats()

	tlb.InvalidateAll()
	tlb.Insert(tag, 0x3000, 0xa000, PermRWX)
	tlb.Restore(snap)

	if out, perm, hit := tlb.Lookup(tag, 0x1004); !hit || out != 0x8004 || perm != PermRW {
		t.Fatalf("restored entry wrong: hit=%v out=%#x perm=%v", hit, out, perm)
	}
	if _, _, hit := tlb.Lookup(tag, 0x3000); hit {
		t.Fatal("post-snapshot entry survived restore")
	}
	if s := tlb.Stats(); s.Fills != statsAt.Fills || s.Invalidations != statsAt.Invalidations {
		t.Fatalf("stats not restored: %+v vs %+v", s, statsAt)
	}

	// An empty TLB's snapshot records no sets; restoring it over a
	// filled TLB still empties it, and a filled snapshot still refills.
	tlb.InvalidateAll()
	empty := tlb.Snapshot()
	tlb.Insert(tag, 0x3000, 0xa000, PermRWX)
	tlb.Restore(empty)
	if _, _, hit := tlb.Lookup(tag, 0x3000); hit || tlb.LiveEntries(nil) != 0 {
		t.Fatalf("restoring an empty snapshot left %d live entries", tlb.LiveEntries(nil))
	}
	tlb.Restore(snap)
	if _, _, hit := tlb.Lookup(tag, 0x2000); !hit || tlb.LiveEntries(nil) != 2 {
		t.Fatalf("restoring a filled snapshot over an empty TLB: %d live entries", tlb.LiveEntries(nil))
	}
}
