package mmu

import "fmt"

// TLBTag identifies the translation context an entry belongs to, matching
// ARMv8 tagging: ASID distinguishes processes within a guest, VMID
// distinguishes guests. A VM context switch on hardware with VMID tagging
// needs no flush; without it (or when VMIDs are recycled) the incoming
// guest pays a cold-TLB transient — the effect behind the paper's
// RandomAccess degradation under the chattier Linux scheduler.
type TLBTag struct {
	ASID uint16
	VMID uint16
}

type tlbEntry struct {
	valid bool
	tag   TLBTag
	vpage uint64 // input page number
	out   uint64 // output page base
	perm  Perms
	lru   uint64 // engine-supplied monotonic stamp
}

// TLBStats counts lookup outcomes.
type TLBStats struct {
	Hits, Misses  uint64
	Fills         uint64
	Invalidations uint64
}

// HitRate reports hits/(hits+misses), or 0 with no lookups.
func (s TLBStats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// TLB is a set-associative translation lookaside buffer with true-LRU
// replacement within each set. Geometry defaults follow the Cortex-A53's
// 512-entry, 4-way unified main TLB.
type TLB struct {
	sets  int
	ways  int
	data  [][]tlbEntry
	live  int // valid entries in data
	clock uint64
	stats TLBStats
}

// NewTLB builds a TLB with the given total entries and associativity.
func NewTLB(entries, ways int) (*TLB, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("mmu: bad TLB geometry %d entries / %d ways", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mmu: TLB set count %d not a power of two", sets)
	}
	t := &TLB{sets: sets, ways: ways, data: make([][]tlbEntry, sets)}
	for i := range t.data {
		t.data[i] = make([]tlbEntry, ways)
	}
	return t, nil
}

// NewA53TLB returns a TLB with Cortex-A53 main-TLB geometry.
func NewA53TLB() *TLB {
	t, err := NewTLB(512, 4)
	if err != nil {
		panic(err)
	}
	return t
}

// Entries reports total capacity.
func (t *TLB) Entries() int { return t.sets * t.ways }

// Reach reports the bytes covered when fully populated with 4 KiB pages.
func (t *TLB) Reach() uint64 { return uint64(t.Entries()) * GranuleSize }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = TLBStats{} }

func (t *TLB) setFor(vpage uint64) int { return int(vpage) & (t.sets - 1) }

// Lookup searches for a translation of addr in context tag. On a hit it
// returns the output address and permissions.
func (t *TLB) Lookup(tag TLBTag, addr uint64) (out uint64, perm Perms, hit bool) {
	vpage := addr >> GranuleShift
	set := t.data[t.setFor(vpage)]
	t.clock++
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == tag && e.vpage == vpage {
			e.lru = t.clock
			t.stats.Hits++
			return e.out | (addr & (GranuleSize - 1)), e.perm, true
		}
	}
	t.stats.Misses++
	return 0, 0, false
}

// Insert fills a translation, evicting the set's LRU entry if needed.
func (t *TLB) Insert(tag TLBTag, addr, out uint64, perm Perms) {
	vpage := addr >> GranuleShift
	set := t.data[t.setFor(vpage)]
	t.clock++
	t.stats.Fills++
	// Every way is checked for the page before a free way is taken: an
	// invalidation may have left a hole ahead of the page's live entry,
	// and filling the hole would leave a stale duplicate behind it.
	victim, free := 0, -1
	for i := range set {
		e := &set[i]
		if !e.valid {
			if free < 0 {
				free = i
			}
			continue
		}
		if e.tag == tag && e.vpage == vpage {
			// Refill of an existing entry updates it in place.
			e.out = out &^ uint64(GranuleSize-1)
			e.perm = perm
			e.lru = t.clock
			return
		}
		if e.lru < set[victim].lru {
			victim = i
		}
	}
	if free >= 0 {
		victim = free
		t.live++
	}
	set[victim] = tlbEntry{
		valid: true, tag: tag, vpage: vpage,
		out: out &^ uint64(GranuleSize-1), perm: perm, lru: t.clock,
	}
}

// InvalidateAll drops every entry (TLBI ALLE1 equivalent) and reports how
// many live entries were dropped.
func (t *TLB) InvalidateAll() int {
	n := 0
	for _, set := range t.data {
		for i := range set {
			if set[i].valid {
				set[i] = tlbEntry{}
				n++
			}
		}
	}
	t.live -= n
	t.stats.Invalidations++
	return n
}

// InvalidateVMID drops all entries for one VMID (TLBI VMALLS12E1).
func (t *TLB) InvalidateVMID(vmid uint16) int {
	n := 0
	for _, set := range t.data {
		for i := range set {
			if set[i].valid && set[i].tag.VMID == vmid {
				set[i] = tlbEntry{}
				n++
			}
		}
	}
	t.live -= n
	t.stats.Invalidations++
	return n
}

// InvalidateASID drops all entries for one (VMID, ASID) pair.
func (t *TLB) InvalidateASID(tag TLBTag) int {
	n := 0
	for _, set := range t.data {
		for i := range set {
			if set[i].valid && set[i].tag == tag {
				set[i] = tlbEntry{}
				n++
			}
		}
	}
	t.live -= n
	t.stats.Invalidations++
	return n
}

// InvalidateVA drops the entry for one page in one context (TLBI VAE1).
func (t *TLB) InvalidateVA(tag TLBTag, addr uint64) bool {
	vpage := addr >> GranuleShift
	set := t.data[t.setFor(vpage)]
	for i := range set {
		if set[i].valid && set[i].tag == tag && set[i].vpage == vpage {
			set[i] = tlbEntry{}
			t.live--
			t.stats.Invalidations++
			return true
		}
	}
	return false
}

// LiveEntries reports the number of valid entries, optionally filtered to
// one VMID (pass nil for all).
func (t *TLB) LiveEntries(vmid *uint16) int {
	if vmid == nil {
		return t.live
	}
	n := 0
	for _, set := range t.data {
		for i := range set {
			if set[i].valid && set[i].tag.VMID == *vmid {
				n++
			}
		}
	}
	return n
}
