package mmu

import (
	"testing"
	"testing/quick"
)

func TestTLBGeometryValidation(t *testing.T) {
	if _, err := NewTLB(0, 4); err == nil {
		t.Fatal("zero entries accepted")
	}
	if _, err := NewTLB(10, 4); err == nil {
		t.Fatal("entries not divisible by ways accepted")
	}
	if _, err := NewTLB(24, 4); err == nil {
		t.Fatal("non power-of-two sets accepted")
	}
	tlb := NewA53TLB()
	if tlb.Entries() != 512 {
		t.Fatalf("A53 entries = %d", tlb.Entries())
	}
	if tlb.Reach() != 512*GranuleSize {
		t.Fatalf("reach = %d", tlb.Reach())
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb, _ := NewTLB(16, 4)
	tag := TLBTag{ASID: 1, VMID: 2}
	if _, _, hit := tlb.Lookup(tag, 0x1000); hit {
		t.Fatal("hit in empty TLB")
	}
	tlb.Insert(tag, 0x1234, 0x8000_1000, PermRW)
	out, perm, hit := tlb.Lookup(tag, 0x1777)
	if !hit {
		t.Fatal("miss after insert (same page)")
	}
	if out != 0x8000_1777 {
		t.Fatalf("out = %#x", out)
	}
	if perm != PermRW {
		t.Fatalf("perm = %v", perm)
	}
	s := tlb.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestTLBTagMismatchMisses(t *testing.T) {
	tlb, _ := NewTLB(16, 4)
	tlb.Insert(TLBTag{ASID: 1, VMID: 1}, 0x1000, 0x9000, PermR)
	if _, _, hit := tlb.Lookup(TLBTag{ASID: 1, VMID: 2}, 0x1000); hit {
		t.Fatal("cross-VMID hit: isolation violation")
	}
	if _, _, hit := tlb.Lookup(TLBTag{ASID: 2, VMID: 1}, 0x1000); hit {
		t.Fatal("cross-ASID hit")
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	tlb, _ := NewTLB(8, 4) // 2 sets; same-set pages differ by 2 in vpage
	tag := TLBTag{}
	pages := []uint64{0, 2, 4, 6} // all map to set 0
	for _, p := range pages {
		tlb.Insert(tag, p*GranuleSize, p*GranuleSize, PermR)
	}
	// Touch page 0 so page 2 becomes LRU; insert page 8 → evicts page 2.
	tlb.Lookup(tag, 0)
	tlb.Insert(tag, 8*GranuleSize, 8*GranuleSize, PermR)
	if _, _, hit := tlb.Lookup(tag, 2*GranuleSize); hit {
		t.Fatal("LRU victim survived")
	}
	for _, p := range []uint64{0, 4, 6, 8} {
		if _, _, hit := tlb.Lookup(tag, p*GranuleSize); !hit {
			t.Fatalf("page %d evicted unexpectedly", p)
		}
	}
}

func TestTLBInsertRefillUpdatesInPlace(t *testing.T) {
	tlb, _ := NewTLB(16, 4)
	tag := TLBTag{}
	tlb.Insert(tag, 0x1000, 0x8000, PermR)
	tlb.Insert(tag, 0x1000, 0x9000, PermRW)
	out, perm, hit := tlb.Lookup(tag, 0x1000)
	if !hit || out != 0x9000 || perm != PermRW {
		t.Fatalf("refill: hit=%v out=%#x perm=%v", hit, out, perm)
	}
	if tlb.LiveEntries(nil) != 1 {
		t.Fatalf("live = %d after refill", tlb.LiveEntries(nil))
	}
}

// TestTLBRefillBehindHole refills a page whose entry sits behind a way an
// invalidation emptied. The refill must update the live entry, not fill
// the hole with a duplicate that a later InvalidateVA leaves half
// removed.
func TestTLBRefillBehindHole(t *testing.T) {
	tlb, _ := NewTLB(2, 2) // one set, two ways
	tag := TLBTag{VMID: 1}
	a, b := uint64(0), uint64(GranuleSize)
	tlb.Insert(tag, a, 0x10000, PermR) // way 0
	tlb.Insert(tag, b, 0x20000, PermR) // way 1
	tlb.InvalidateVA(tag, a)           // way 0 becomes a hole
	tlb.Insert(tag, b, 0x30000, PermR) // refill b
	if n := tlb.LiveEntries(nil); n != 1 {
		t.Fatalf("refill left %d live entries, want 1", n)
	}
	if out, _, hit := tlb.Lookup(tag, b); !hit || out != 0x30000 {
		t.Fatalf("refilled lookup = %#x hit=%v, want 0x30000", out, hit)
	}
	tlb.InvalidateVA(tag, b)
	if out, _, hit := tlb.Lookup(tag, b); hit {
		t.Fatalf("lookup after invalidation hit stale entry %#x", out)
	}
}

func TestTLBInvalidations(t *testing.T) {
	tlb, _ := NewTLB(64, 4)
	for vmid := uint16(1); vmid <= 3; vmid++ {
		for p := uint64(0); p < 5; p++ {
			tlb.Insert(TLBTag{VMID: vmid}, p*GranuleSize, p*GranuleSize, PermR)
		}
	}
	if tlb.LiveEntries(nil) != 15 {
		t.Fatalf("live = %d", tlb.LiveEntries(nil))
	}
	vm2 := uint16(2)
	if n := tlb.InvalidateVMID(2); n != 5 {
		t.Fatalf("InvalidateVMID dropped %d", n)
	}
	if tlb.LiveEntries(&vm2) != 0 {
		t.Fatal("VMID 2 entries survived")
	}
	if tlb.LiveEntries(nil) != 10 {
		t.Fatal("other VMIDs affected")
	}
	if n := tlb.InvalidateASID(TLBTag{VMID: 1}); n != 5 {
		t.Fatalf("InvalidateASID dropped %d", n)
	}
	if !tlb.InvalidateVA(TLBTag{VMID: 3}, 0) {
		t.Fatal("InvalidateVA missed")
	}
	if tlb.InvalidateVA(TLBTag{VMID: 3}, 0) {
		t.Fatal("InvalidateVA double hit")
	}
	if n := tlb.InvalidateAll(); n != 4 {
		t.Fatalf("InvalidateAll dropped %d", n)
	}
	if tlb.LiveEntries(nil) != 0 {
		t.Fatal("entries survived InvalidateAll")
	}
}

func TestTLBResetStats(t *testing.T) {
	tlb, _ := NewTLB(16, 4)
	tlb.Lookup(TLBTag{}, 0)
	tlb.ResetStats()
	if s := tlb.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if TLBStats.HitRate(TLBStats{}) != 0 {
		t.Fatal("empty hit rate not 0")
	}
}

// Property: after any insert sequence, a lookup never returns a
// translation that was not inserted for exactly that (tag, page), and
// never after that page's invalidation.
func TestQuickTLBNeverStale(t *testing.T) {
	type op struct {
		Insert bool
		VMID   uint8
		Page   uint8
	}
	f := func(ops []op) bool {
		tlb, _ := NewTLB(16, 2) // small, to force heavy eviction
		truth := map[TLBTag]map[uint64]uint64{}
		for _, o := range ops {
			tag := TLBTag{VMID: uint16(o.VMID % 4)}
			page := uint64(o.Page % 32)
			addr := page * GranuleSize
			if o.Insert {
				out := (page ^ uint64(o.VMID)) * GranuleSize
				tlb.Insert(tag, addr, out, PermR)
				if truth[tag] == nil {
					truth[tag] = map[uint64]uint64{}
				}
				truth[tag][page] = out
			} else {
				tlb.InvalidateVA(tag, addr)
				delete(truth[tag], page)
			}
			// A hit must match the inserted value (misses are always
			// allowed — eviction is legal).
			out, _, hit := tlb.Lookup(tag, addr)
			if hit {
				want, ok := truth[tag][page]
				if !ok || out != want {
					return false
				}
			}
			// The live count matches a recount of the valid entries.
			n := 0
			for vmid := uint16(0); vmid < 4; vmid++ {
				n += tlb.LiveEntries(&vmid)
			}
			if n != tlb.LiveEntries(nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
