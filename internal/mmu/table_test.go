package mmu

import (
	"testing"
	"testing/quick"
)

func TestPermsAllowsString(t *testing.T) {
	if !PermRWX.Allows(PermRW) || PermR.Allows(PermW) {
		t.Fatal("Allows wrong")
	}
	if PermRX.String() != "r-x" || Perms(0).String() != "---" {
		t.Fatalf("String = %q / %q", PermRX.String(), Perms(0).String())
	}
}

func TestMapTranslateRoundTrip(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Map(0x40_0000, 0x8000_0000, 4*GranuleSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 4*GranuleSize; off += 0x333 {
		out, perm, level, ok := tb.Translate(0x40_0000 + off)
		if !ok {
			t.Fatalf("translate failed at +%#x", off)
		}
		if out != 0x8000_0000+off {
			t.Fatalf("out = %#x at +%#x", out, off)
		}
		if perm != PermRW || level != 3 {
			t.Fatalf("perm/level = %v/%d", perm, level)
		}
	}
	if _, _, _, ok := tb.Translate(0x40_0000 + 4*GranuleSize); ok {
		t.Fatal("translated past mapping")
	}
	if _, _, _, ok := tb.Translate(0x40_0000 - 1); ok {
		t.Fatal("translated before mapping")
	}
	if tb.MappedBytes() != 4*GranuleSize {
		t.Fatalf("MappedBytes = %#x", tb.MappedBytes())
	}
}

func TestBlockMapping(t *testing.T) {
	tb := NewTable("s1")
	// 2 MiB aligned both sides → a single level-2 block.
	if err := tb.Map(2*BlockSizeL2, 8*BlockSizeL2, BlockSizeL2, PermRWX); err != nil {
		t.Fatal(err)
	}
	out, _, level, ok := tb.Translate(2*BlockSizeL2 + 0x12345)
	if !ok || level != 2 {
		t.Fatalf("block translate ok=%v level=%d", ok, level)
	}
	if out != 8*BlockSizeL2+0x12345 {
		t.Fatalf("block out = %#x", out)
	}
}

func TestMixedBlockAndPageSpan(t *testing.T) {
	tb := NewTable("s1")
	// Unaligned start forces pages, then a block, then trailing pages.
	base := uint64(BlockSizeL2 - 4*GranuleSize)
	size := uint64(BlockSizeL2 + 8*GranuleSize)
	if err := tb.Map(base, base, size, PermRW); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < size; off += GranuleSize {
		out, _, _, ok := tb.Translate(base + off)
		if !ok || out != base+off {
			t.Fatalf("identity translate failed at +%#x (ok=%v out=%#x)", off, ok, out)
		}
	}
	if err := tb.Unmap(base, size); err != nil {
		t.Fatal(err)
	}
	if tb.MappedBytes() != 0 {
		t.Fatal("MappedBytes nonzero after full unmap")
	}
	if tb.Nodes() != 1 {
		t.Fatalf("nodes = %d after full unmap, want 1 (root)", tb.Nodes())
	}
}

func TestMapRejectsOverlapAtomically(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Map(0x1000, 0x1000, GranuleSize, PermR); err != nil {
		t.Fatal(err)
	}
	before := tb.MappedBytes()
	if err := tb.Map(0, 0, 4*GranuleSize, PermR); err == nil {
		t.Fatal("overlapping map accepted")
	}
	if tb.MappedBytes() != before {
		t.Fatal("failed Map mutated the table")
	}
	if _, _, _, ok := tb.Translate(0); ok {
		t.Fatal("partial mapping leaked from failed Map")
	}
}

func TestMapValidation(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Map(0x1001, 0, GranuleSize, PermR); err == nil {
		t.Fatal("unaligned input accepted")
	}
	if err := tb.Map(0, 0x5, GranuleSize, PermR); err == nil {
		t.Fatal("unaligned output accepted")
	}
	if err := tb.Map(0, 0, 0, PermR); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := tb.Map(0, 0, GranuleSize, 0); err == nil {
		t.Fatal("empty perms accepted")
	}
	if err := tb.Map(1<<InputBits, 0, GranuleSize, PermR); err == nil {
		t.Fatal("out-of-range input accepted")
	}
}

func TestUnmapErrors(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Unmap(0, GranuleSize); err == nil {
		t.Fatal("unmap of unmapped accepted")
	}
	if err := tb.Map(0, 0, BlockSizeL2, PermR); err != nil {
		t.Fatal(err)
	}
	// Failed unmap (second page range extends past the mapping... still
	// mapped here, so use an unmapped range) must leave the table intact.
	if err := tb.Unmap(BlockSizeL2, GranuleSize); err == nil {
		t.Fatal("unmap past mapping accepted")
	}
	if _, _, _, ok := tb.Translate(0); !ok {
		t.Fatal("failed Unmap damaged the table")
	}
}

func TestUnmapSplitsBlock(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Map(0, 8*BlockSizeL2, BlockSizeL2, PermRW); err != nil {
		t.Fatal(err)
	}
	// Unmapping one page out of the 2 MiB block splits it.
	if err := tb.Unmap(3*GranuleSize, GranuleSize); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := tb.Translate(3 * GranuleSize); ok {
		t.Fatal("unmapped page still translates")
	}
	// Neighbours keep the block's translation and permissions, now as pages.
	out, perm, level, ok := tb.Translate(2 * GranuleSize)
	if !ok || out != 8*BlockSizeL2+2*GranuleSize || perm != PermRW || level != 3 {
		t.Fatalf("neighbour after split: ok=%v out=%#x perm=%v level=%d", ok, out, perm, level)
	}
	out, _, _, ok = tb.Translate(4*GranuleSize + 5)
	if !ok || out != 8*BlockSizeL2+4*GranuleSize+5 {
		t.Fatalf("high neighbour after split: %#x", out)
	}
	if tb.MappedBytes() != BlockSizeL2-GranuleSize {
		t.Fatalf("MappedBytes = %#x", tb.MappedBytes())
	}
}

func TestProtectSplitsBlock(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Map(0, 0, BlockSizeL2, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tb.Protect(GranuleSize, GranuleSize, PermR); err != nil {
		t.Fatal(err)
	}
	if _, perm, _, _ := tb.Translate(GranuleSize); perm != PermR {
		t.Fatalf("protected page perm = %v", perm)
	}
	if _, perm, _, _ := tb.Translate(0); perm != PermRW {
		t.Fatalf("neighbour perm = %v", perm)
	}
}

func TestUnmapThenRemapDifferentTarget(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Map(0x10_0000, 0xA000_0000, 2*GranuleSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tb.Unmap(0x10_0000, 2*GranuleSize); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x10_0000, 0xB000_0000, 2*GranuleSize, PermR); err != nil {
		t.Fatal(err)
	}
	out, perm, _, ok := tb.Translate(0x10_0000)
	if !ok || out != 0xB000_0000 || perm != PermR {
		t.Fatalf("remap: ok=%v out=%#x perm=%v", ok, out, perm)
	}
}

func TestProtect(t *testing.T) {
	tb := NewTable("s1")
	if err := tb.Map(0, 0, 2*GranuleSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := tb.Protect(0, 2*GranuleSize, PermR); err != nil {
		t.Fatal(err)
	}
	_, perm, _, _ := tb.Translate(GranuleSize)
	if perm != PermR {
		t.Fatalf("perm after protect = %v", perm)
	}
	if err := tb.Protect(4*GranuleSize, GranuleSize, PermR); err == nil {
		t.Fatal("protect of unmapped accepted")
	}
	if err := tb.Protect(0, GranuleSize, 0); err == nil {
		t.Fatal("empty perms accepted")
	}
}

// Property: identity-map a random set of disjoint pages; every mapped page
// translates to itself and every neighbouring unmapped page faults.
func TestQuickMapTranslateExactness(t *testing.T) {
	f := func(pages []uint16) bool {
		tb := NewTable("q")
		mapped := map[uint64]bool{}
		for _, p := range pages {
			addr := uint64(p) * GranuleSize
			if mapped[addr] {
				continue
			}
			if err := tb.Map(addr, addr, GranuleSize, PermRW); err != nil {
				return false
			}
			mapped[addr] = true
		}
		for addr := range mapped {
			out, _, _, ok := tb.Translate(addr + 7)
			if !ok || out != addr+7 {
				return false
			}
		}
		// Probe the whole space: anything unmapped must fault.
		for p := uint64(0); p <= 1<<16; p += 97 {
			addr := p * GranuleSize
			_, _, _, ok := tb.Translate(addr)
			if ok != mapped[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: map/unmap sequences conserve MappedBytes and node pruning.
func TestQuickMapUnmapConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := NewTable("q")
		live := map[uint64]bool{}
		for _, op := range ops {
			addr := uint64(op%1024) * GranuleSize
			if live[addr] {
				if err := tb.Unmap(addr, GranuleSize); err != nil {
					return false
				}
				delete(live, addr)
			} else {
				if err := tb.Map(addr, addr^0xFF000, GranuleSize, PermRW); err != nil {
					return false
				}
				live[addr] = true
			}
			if tb.MappedBytes() != uint64(len(live))*GranuleSize {
				return false
			}
		}
		for addr := range live {
			tb.Unmap(addr, GranuleSize)
		}
		return tb.Nodes() == 1 && tb.MappedBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
