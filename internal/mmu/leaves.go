package mmu

// Run is a stretch of a table's leaves: the input range [In, In+Size)
// maps to the output range [Out, Out+Size) with permissions Perm.
type Run struct {
	In, Out, Size uint64
	Perm          Perms
}

// Leaves calls fn with the table's leaf runs inside [lo, hi), in input
// order, and stops early when fn returns false. A leaf that straddles
// lo or hi is clipped to the window. Neighbouring leaves whose outputs
// are contiguous and whose permissions match are merged, so no two runs
// fn sees could be merged into one. The walk descends only populated
// subtrees: an empty subtree costs one descriptor test, however large
// it is. fn must not mutate the table.
func (t *Table) Leaves(lo, hi uint64, fn func(Run) bool) {
	hi = min(hi, inputAddrMask+1)
	if lo >= hi {
		return
	}
	w := leafWalk{lo: lo, hi: hi, fn: fn}
	w.visit(t.root, 0, 0)
	if !w.stopped && w.run.Size != 0 {
		fn(w.run)
	}
}

// leafWalk is one Leaves call: the window, the callback and the run
// being merged (Size 0 while there is none).
type leafWalk struct {
	lo, hi  uint64
	fn      func(Run) bool
	run     Run
	stopped bool
}

// visit walks node n at level, whose first entry translates input
// address base, over the window.
func (w *leafWalk) visit(n *node, level int, base uint64) {
	shift := uint(GranuleShift + (Levels-1-level)*LevelBits)
	i, end := 0, len(n.entries)
	if w.lo > base {
		i = int((w.lo - base) >> shift)
	}
	if top := (w.hi - 1 - base) >> shift; top < uint64(end) {
		end = int(top) + 1
	}
	// seen stops the scan once every live entry from i on was visited.
	for seen := 0; i < end && seen < n.live; i++ {
		e := &n.entries[i]
		if e.kind == entryInvalid {
			continue
		}
		seen++
		in := base + uint64(i)<<shift
		if e.kind == entryTable {
			w.visit(e.next, level+1, in)
		} else {
			out, size := e.out, uint64(1)<<shift
			if in < w.lo {
				out += w.lo - in
				size -= w.lo - in
				in = w.lo
			}
			w.leaf(Run{In: in, Out: out, Size: min(size, w.hi-in), Perm: e.perm})
		}
		if w.stopped {
			return
		}
	}
}

// leaf merges r into the pending run, or hands the pending run to the
// callback and starts a new one.
func (w *leafWalk) leaf(r Run) {
	p := &w.run
	if p.Size != 0 && p.In+p.Size == r.In && p.Out+p.Size == r.Out && p.Perm == r.Perm {
		p.Size += r.Size
		return
	}
	if p.Size != 0 && !w.fn(*p) {
		w.stopped = true
		return
	}
	*p = r
}
