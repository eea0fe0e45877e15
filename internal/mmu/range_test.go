package mmu

import (
	"fmt"
	"testing"
	"testing/quick"
)

// The range-mutation property test's arena: 8 MiB of input space
// straddling the 512 GiB boundary, so a range can cross a level-1, a
// level-2 and a level-3 node edge at once, mapped onto a 16 MiB output
// window.
const (
	rangeArenaBase  = 1<<39 - 2*BlockSizeL2
	rangeArenaPages = 4 * BlockSizeL2 / GranuleSize
	rangeArenaEnd   = rangeArenaBase + rangeArenaPages*GranuleSize
	rangeOutBase    = 0x20_0000_0000
	rangeOutPages   = 8 * BlockSizeL2 / GranuleSize
)

// compareTables checks every page of the arena, the counters and the
// leaf runs over [lo, hi) of t against the reference r.
func compareTables(t *Table, r *refTable, lo, hi uint64) error {
	if t.Gen() != r.gen || t.Nodes() != r.nodes || t.MappedBytes() != r.mapped {
		return fmt.Errorf("gen/nodes/mapped %d/%d/%#x, reference %d/%d/%#x",
			t.Gen(), t.Nodes(), t.MappedBytes(), r.gen, r.nodes, r.mapped)
	}
	var want []Run
	for a := uint64(rangeArenaBase); a < rangeArenaEnd; a += GranuleSize {
		out, perm, level, ok := t.Translate(a)
		rout, rperm, rlevel, rok := r.Translate(a)
		if out != rout || perm != rperm || level != rlevel || ok != rok {
			return fmt.Errorf("page %#x: (%#x %v level %d ok %v), reference (%#x %v level %d ok %v)",
				a, out, perm, level, ok, rout, rperm, rlevel, rok)
		}
		if !ok || a < lo || a >= hi {
			continue
		}
		if k := len(want) - 1; k >= 0 && want[k].In+want[k].Size == a && want[k].Out+want[k].Size == out && want[k].Perm == perm {
			want[k].Size += GranuleSize
		} else {
			want = append(want, Run{In: a, Out: out, Size: GranuleSize, Perm: perm})
		}
	}
	var got []Run
	t.Leaves(lo, hi, func(r Run) bool {
		got = append(got, r)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("Leaves over [%#x,%#x) = %v, reference runs %v", lo, hi, got, want)
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestQuickRangeMutationsMatchPerPage drives the table and the per-page
// reference (refTable) through the same random Map, Unmap and Protect
// calls, with snapshots and restores between them, and requires the
// same error text, translations (level included, so the blocks a call
// splits show), generation, node count, mapped bytes and leaf runs
// after every call. Ranges reach up to three blocks, cross node edges,
// start and end inside blocks, and cover holes, so calls fail part way
// after splitting a head block, and pass after splitting a tail block. Maps of whole blocks take outputs
// congruent to the input modulo 2 MiB, so that they build blocks. Every
// snapshot still translates as its reference does at the end, after
// later calls have copied the nodes it shares.
func TestQuickRangeMutationsMatchPerPage(t *testing.T) {
	type op struct {
		Kind, Perm, Shape uint8
		Page, Out, Pages  uint16
		WinLo, WinLen     uint16
	}
	type snap struct {
		st  any
		ref *refState
	}
	perms := []Perms{PermR, PermRW, PermRX, PermRWX}
	// Failed calls that split a block, and passing ones that split a
	// block and their tail block.
	var failSplits, splits, tailSplits int
	f := func(ops []op) bool {
		tab, ref := NewTable("q"), newRefTable()
		var snaps []snap
		for i, o := range ops {
			in := rangeArenaBase + uint64(o.Page)%rangeArenaPages*GranuleSize
			pages := uint64(o.Pages)%64 + 1
			switch o.Shape % 4 {
			case 0: // long: up to three blocks
				pages = uint64(o.Pages)%(3*BlockSizeL2/GranuleSize) + 1
			case 1: // to a page inside the next 2 MiB block
				end := in&^(BlockSizeL2-1) + BlockSizeL2 + (uint64(o.Pages)%511+1)*GranuleSize
				pages = (end - in) / GranuleSize
			}
			size := min(pages*GranuleSize, rangeArenaEnd-in)
			perm := perms[o.Perm%4]
			gen := ref.gen
			// The tail block: a 2 MiB block mapping the range's last page
			// that starts inside the range and ends past it.
			last := in + size - 1
			_, _, level, mapped := ref.Translate(last)
			tailBlock := mapped && level == 2 && last&^(BlockSizeL2-1) > in && (in+size)%BlockSizeL2 != 0
			var err, want error
			switch kind := o.Kind % 10; kind {
			case 0, 1, 2, 3:
				out := rangeOutBase + uint64(o.Out)%rangeOutPages*GranuleSize
				if kind >= 2 { // one or two whole blocks, give or take a page
					in = max(in&^(BlockSizeL2-1)-uint64(o.Shape%3)*GranuleSize, rangeArenaBase)
					size = min(uint64(o.Shape%2+1)*BlockSizeL2+uint64(o.Pages%3)*GranuleSize, rangeArenaEnd-in)
					out = rangeOutBase + uint64(o.Out)%4*BlockSizeL2 + in%BlockSizeL2
				}
				err, want = tab.Map(in, out, size, perm), ref.Map(in, out, size, perm)
			case 4, 5:
				err, want = tab.Unmap(in, size), ref.Unmap(in, size)
			case 6, 7:
				err, want = tab.Protect(in, size, perm), ref.Protect(in, size, perm)
			case 8:
				snaps = append(snaps, snap{tab.Snapshot(), ref.snapshot()})
			case 9:
				if len(snaps) > 0 {
					s := snaps[int(o.Out)%len(snaps)]
					tab.Restore(s.st)
					ref.restore(s.ref)
				}
			}
			if errText(err) != errText(want) {
				t.Logf("op %d %+v: error %q, reference %q", i, o, errText(err), errText(want))
				return false
			}
			switch split := ref.gen > gen+1 || err != nil && ref.gen > gen; {
			case err != nil && split:
				failSplits++
			case err == nil && split && o.Kind%10 >= 4:
				splits++
				if tailBlock {
					tailSplits++
				}
			}
			if len(tab.free) > tab.peak {
				t.Logf("op %d: free list holds %d nodes, peak is %d", i, len(tab.free), tab.peak)
				return false
			}
			lo := rangeArenaBase + uint64(o.WinLo)%rangeArenaPages*GranuleSize
			hi := min(lo+(uint64(o.WinLen)%rangeArenaPages+1)*GranuleSize, rangeArenaEnd)
			if err := compareTables(tab, ref, lo, hi); err != nil {
				t.Logf("op %d %+v: %v", i, o, err)
				return false
			}
		}
		for k, s := range snaps {
			probe, rprobe := NewTable("probe"), newRefTable()
			probe.Restore(s.st)
			rprobe.restore(s.ref)
			if err := compareTables(probe, rprobe, rangeArenaBase, rangeArenaEnd); err != nil {
				t.Logf("snapshot %d: %v", k, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d passing (%d at the tail) and %d failing unmaps and protects split blocks", splits, tailSplits, failSplits)
	if tailSplits == 0 || failSplits == 0 {
		t.Fatal("no passing call split its tail block, or no failing call split a block: the split paths went untested")
	}
}

// TestMapRejectsOutputPastAddressField pins the output-range check: an
// output range that wraps uint64 or ends past the 48-bit address field
// of a descriptor is rejected, and the table is left empty.
func TestMapRejectsOutputPastAddressField(t *testing.T) {
	const top = 1 << 48 // the end of the output address space
	for _, c := range []struct{ out, size uint64 }{
		{^uint64(0) - 0xfff, 0x2000}, // wraps uint64
		{1 << 52, GranuleSize},       // past 2^48
		{top - GranuleSize, 2 * GranuleSize},
	} {
		tb := NewTable("s2")
		if err := tb.Map(0, c.out, c.size, PermR); err == nil {
			out, _, _, ok := tb.Translate(GranuleSize)
			t.Errorf("Map(0, %#x, %#x) accepted; IPA 0x1000 translates to %#x (%v)", c.out, c.size, out, ok)
		}
		if tb.MappedBytes() != 0 || tb.Nodes() != 1 {
			t.Errorf("rejected Map(0, %#x, %#x) left %#x bytes in %d nodes", c.out, c.size, tb.MappedBytes(), tb.Nodes())
		}
	}
	// The last page below 2^48 is a valid output.
	tb := NewTable("s2")
	if err := tb.Map(0, top-GranuleSize, GranuleSize, PermR); err != nil {
		t.Fatal(err)
	}
	if out, _, _, ok := tb.Translate(0x123); !ok || out != top-GranuleSize+0x123 {
		t.Fatalf("top output page translates to %#x (%v)", out, ok)
	}
}
