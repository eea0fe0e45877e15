package mmu

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// The property test's arena: 8 MiB of input space straddling the 1 GiB
// boundary, so runs cross level-1 and level-2 node edges, mapped onto a
// 16 MiB output window.
const (
	leafArenaBase  = 1<<30 - 2*BlockSizeL2
	leafArenaPages = 4 * BlockSizeL2 / GranuleSize
	leafOutBase    = 0x20_0000_0000
	leafOutPages   = 8 * BlockSizeL2 / GranuleSize
)

// pageMap is a table's translation of every arena page, from Translate.
type pageMap map[uint64]Run

func arenaPages(t *Table) pageMap {
	m := pageMap{}
	for a := uint64(leafArenaBase); a < leafArenaBase+leafArenaPages*GranuleSize; a += GranuleSize {
		if out, perm, _, ok := t.Translate(a); ok {
			m[a] = Run{In: a, Out: out, Size: GranuleSize, Perm: perm}
		}
	}
	return m
}

func samePages(a, b pageMap) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// checkLeaves walks [lo, hi) and compares the runs, rebuilt page by page,
// with Translate. It also requires the runs to be ordered, clipped to the
// window and maximal (no two adjacent runs mergeable).
func checkLeaves(t *Table, lo, hi uint64) error {
	var runs []Run
	t.Leaves(lo, hi, func(r Run) bool {
		runs = append(runs, r)
		return true
	})
	got := pageMap{}
	for i, r := range runs {
		if r.Size == 0 || r.Size%GranuleSize != 0 || r.In < lo || r.In+r.Size > hi {
			return fmt.Errorf("run %+v malformed or outside [%#x,%#x)", r, lo, hi)
		}
		if i > 0 {
			p := runs[i-1]
			if p.In+p.Size > r.In {
				return fmt.Errorf("runs %+v and %+v out of order", p, r)
			}
			if p.In+p.Size == r.In && p.Out+p.Size == r.Out && p.Perm == r.Perm {
				return fmt.Errorf("runs %+v and %+v should have merged", p, r)
			}
		}
		for off := uint64(0); off < r.Size; off += GranuleSize {
			got[r.In+off] = Run{In: r.In + off, Out: r.Out + off, Size: GranuleSize, Perm: r.Perm}
		}
	}
	for a := lo; a < hi; a += GranuleSize {
		out, perm, _, ok := t.Translate(a)
		g, walked := got[a]
		if ok != walked || (ok && (g.Out != out || g.Perm != perm)) {
			return fmt.Errorf("page %#x: walk says %+v (present %v), Translate says out %#x perm %v (ok %v)",
				a, g, walked, out, perm, ok)
		}
	}
	// An early stop ends the walk at the first run.
	calls := 0
	t.Leaves(lo, hi, func(Run) bool { calls++; return false })
	if want := min(len(runs), 1); calls != want {
		return fmt.Errorf("stopping walk made %d calls, want %d", calls, want)
	}
	return nil
}

// mappedStretch reports how many pages from in on, up to limit, are
// mapped.
func mappedStretch(t *Table, in uint64, limit int) uint64 {
	n := uint64(0)
	for ; n < uint64(limit); n++ {
		if _, _, _, ok := t.Translate(in + n*GranuleSize); !ok {
			break
		}
	}
	return n
}

// TestQuickLeavesMatchTranslate drives a table through random Map, Unmap
// and Protect calls (2 MiB blocks and block splits included) with
// snapshots and restores interleaved, and checks the leaf-run walk over
// random windows against Translate page by page. A Map that overlaps
// must name the first mapped page. Pruned nodes are recycled into later
// mappings, so every snapshot is re-read at the end of each sequence and
// must still translate exactly as it did when taken.
func TestQuickLeavesMatchTranslate(t *testing.T) {
	type op struct {
		Kind          uint8
		Page, Out     uint16
		Pages         uint8
		Perm          uint8
		WinLo, WinLen uint16
	}
	type snapshot struct {
		st    any
		pages pageMap
	}
	perms := []Perms{PermR, PermRW, PermRX, PermRWX}
	reused := 0
	f := func(ops []op) bool {
		tab := NewTable("q")
		var snaps []snapshot
		fail := func(format string, args ...any) bool {
			t.Logf(format, args...)
			return false
		}
		for i, o := range ops {
			page := uint64(o.Page) % leafArenaPages
			in := leafArenaBase + page*GranuleSize
			perm := perms[o.Perm%4]
			free := len(tab.free)
			switch o.Kind % 8 {
			case 0, 1, 2: // map pages, or a 2 MiB block
				size := (uint64(o.Pages)%32 + 1) * GranuleSize
				out := leafOutBase + uint64(o.Out)%leafOutPages*GranuleSize
				if o.Kind%8 == 2 {
					in &^= BlockSizeL2 - 1
					out &^= BlockSizeL2 - 1
					size = BlockSizeL2
				}
				size = min(size, leafArenaBase+leafArenaPages*GranuleSize-in)
				first, overlap := uint64(0), false
				for off := uint64(0); off < size && !overlap; off += GranuleSize {
					if _, _, _, ok := tab.Translate(in + off); ok {
						first, overlap = in+off, true
					}
				}
				before := arenaPages(tab)
				err := tab.Map(in, out, size, perm)
				if overlap {
					if err == nil {
						return fail("op %d: Map over %#x accepted", i, first)
					}
					if !strings.HasSuffix(err.Error(), fmt.Sprintf("at %#x", first)) {
						return fail("op %d: Map error %q does not name the first mapped page %#x", i, err, first)
					}
					if !samePages(before, arenaPages(tab)) {
						return fail("op %d: failed Map changed the table", i)
					}
				} else if err != nil {
					return fail("op %d: Map: %v", i, err)
				}
				if len(tab.free) < free {
					reused++
				}
			case 3: // unmap part of a mapped stretch, splitting blocks
				if n := mappedStretch(tab, in, int(o.Pages)%48+1); n > 0 {
					if err := tab.Unmap(in, n*GranuleSize); err != nil {
						return fail("op %d: Unmap: %v", i, err)
					}
				}
			case 4: // empty a whole 2 MiB span, so its nodes are pruned
				blk := in &^ (BlockSizeL2 - 1)
				for a := blk; a < blk+BlockSizeL2; a += GranuleSize {
					if n := mappedStretch(tab, a, int(blk+BlockSizeL2-a)/GranuleSize); n > 0 {
						if err := tab.Unmap(a, n*GranuleSize); err != nil {
							return fail("op %d: Unmap: %v", i, err)
						}
						a += (n - 1) * GranuleSize
					}
				}
			case 5: // protect part of a mapped stretch
				if n := mappedStretch(tab, in, int(o.Pages)%48+1); n > 0 {
					if err := tab.Protect(in, n*GranuleSize, perm); err != nil {
						return fail("op %d: Protect: %v", i, err)
					}
				}
			case 6:
				snaps = append(snaps, snapshot{tab.Snapshot(), arenaPages(tab)})
			case 7:
				if len(snaps) > 0 {
					s := snaps[int(o.Out)%len(snaps)]
					tab.Restore(s.st)
					if !samePages(s.pages, arenaPages(tab)) {
						return fail("op %d: restore does not translate as the snapshot did", i)
					}
				}
			}
			if len(tab.free) > tab.peak {
				return fail("op %d: free list holds %d nodes, peak is %d", i, len(tab.free), tab.peak)
			}
			lo := leafArenaBase + uint64(o.WinLo)%leafArenaPages*GranuleSize
			hi := min(lo+(uint64(o.WinLen)%leafArenaPages+1)*GranuleSize, leafArenaBase+leafArenaPages*GranuleSize)
			if err := checkLeaves(tab, lo, hi); err != nil {
				return fail("op %d: window [%#x,%#x): %v", i, lo, hi, err)
			}
		}
		// The whole input space holds exactly the mapped bytes.
		var total uint64
		tab.Leaves(0, 1<<InputBits, func(r Run) bool { total += r.Size; return true })
		if total != tab.MappedBytes() {
			return fail("full walk covers %#x bytes, table maps %#x", total, tab.MappedBytes())
		}
		for k, s := range snaps {
			probe := NewTable("probe")
			probe.Restore(s.st)
			if !samePages(s.pages, arenaPages(probe)) {
				return fail("snapshot %d no longer translates as it did when taken", k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Fatal("no Map took a node from the free list; the recycling path went untested")
	}
}
