package mmu

// WalkCache memoizes successful page-table walks of one Table — the
// software analogue of a hardware walk cache. It is keyed by page number
// and validated against the table's mutation generation (see Table.Gen),
// so any Map/Unmap/Protect on the table implicitly invalidates every
// cached entry without a callback in the mutation path. Failed walks
// (translation faults) are never cached: fault counting stays exact.
//
// The cache is direct-mapped. A lookup is one index and one compare, so
// it pays off on hot stage-2 paths (TranslateIPA under shared-memory
// rings and mailboxes) where the same few pages are walked repeatedly.
type WalkCache struct {
	tab  *Table
	gen  uint64
	mask uint64
	// epoch stamps the entries filled since the last Flush; an entry
	// with any other stamp is empty, so a flush is one increment.
	epoch   uint64
	entries []walkEntry
	hits    uint64
	misses  uint64
}

type walkEntry struct {
	page  uint64 // page number (addr >> GranuleShift)
	out   uint64 // translated base of the page
	epoch uint64 // the cache epoch that filled the entry
	perm  Perms
	level uint8
}

// DefaultWalkCacheEntries is the entry count NewWalkCache uses when the
// caller passes 0.
const DefaultWalkCacheEntries = 1024

// NewWalkCache returns a cache over tab with the given number of entries,
// rounded up to a power of two (0 selects DefaultWalkCacheEntries).
func NewWalkCache(tab *Table, entries int) *WalkCache {
	if entries <= 0 {
		entries = DefaultWalkCacheEntries
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &WalkCache{
		tab:     tab,
		gen:     tab.Gen(),
		mask:    uint64(n - 1),
		epoch:   1,
		entries: make([]walkEntry, n),
	}
}

// Table returns the table this cache fronts.
func (w *WalkCache) Table() *Table { return w.tab }

// Translate is Table.Translate with memoization. The result is always
// identical to an uncached walk: a stale generation flushes the cache
// before lookup, and faults bypass it entirely.
func (w *WalkCache) Translate(addr uint64) (out uint64, perm Perms, level int, ok bool) {
	if g := w.tab.Gen(); g != w.gen {
		w.Flush()
		w.gen = g
	}
	page := addr >> GranuleShift
	e := &w.entries[page&w.mask]
	if e.epoch == w.epoch && e.page == page {
		w.hits++
		return e.out | (addr & (GranuleSize - 1)), e.perm, int(e.level), true
	}
	w.misses++
	out, perm, level, ok = w.tab.Translate(addr)
	if ok {
		*e = walkEntry{page: page, out: out &^ uint64(GranuleSize-1), epoch: w.epoch, perm: perm, level: uint8(level)}
	}
	return out, perm, level, ok
}

// Flush drops every cached entry by starting a new epoch, without
// touching the entries. Generation checks make explicit flushes
// unnecessary for correctness; TLB-invalidation paths call it anyway so a
// crashed VM's translations do not linger in the cache.
func (w *WalkCache) Flush() { w.epoch++ }

// Stats reports cache hits and misses since construction.
func (w *WalkCache) Stats() (hits, misses uint64) { return w.hits, w.misses }
