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

// TestRestoreAdvancesGen pins the rule the generation's readers rely on:
// a restore never brings back a generation observed before it. The
// scenario is the ABA one: map, restore to a snapshot taken before the
// map, then remap the page elsewhere. Had Restore rolled the generation
// back to the snapshot's, the remap would land on the generation
// recorded after the first map, and a reader comparing generations (the
// migration dirty-page model) would take the changed table for an
// unchanged one.
func TestRestoreAdvancesGen(t *testing.T) {
	tab := NewTable("s2")
	seen := map[uint64]bool{tab.Gen(): true}
	observe := func(what string) {
		t.Helper()
		g := tab.Gen()
		if seen[g] {
			t.Fatalf("%s: generation %d was already observed", what, g)
		}
		seen[g] = true
	}
	expect := func(want uint64, mapped bool) {
		t.Helper()
		out, _, _, ok := tab.Translate(0x1000)
		if ok != mapped || (ok && out != want) {
			t.Fatalf("translate 0x1000 = (%#x, %v), want (%#x, %v)", out, ok, want, mapped)
		}
	}
	mustMap := func(out uint64) {
		t.Helper()
		if err := tab.Map(0x1000, out, GranuleSize, PermRW); err != nil {
			t.Fatal(err)
		}
	}

	empty := tab.Snapshot()
	mustMap(0xa000)
	observe("map")
	tab.Restore(empty)
	observe("restore to the empty table")
	expect(0, false)
	mustMap(0xb000)
	observe("remap after restore")
	expect(0xb000, true)

	mapped := tab.Snapshot()
	if err := tab.Unmap(0x1000, GranuleSize); err != nil {
		t.Fatal(err)
	}
	observe("unmap")
	mustMap(0xc000)
	observe("remap")
	tab.Restore(mapped)
	observe("restore to the mapped table")
	expect(0xb000, true)
	tab.Restore(empty)
	observe("restore to the empty table again")
	expect(0, false)
}
