package hafnium

import (
	"slices"

	"khsim/internal/mem"
)

// extent is one run of physical frames [base, end) owned by one VM.
type extent struct {
	base, end mem.PA
	vm        VMID
}

// ownerTable records which VM owns every physical frame, as a sorted
// slice of non-overlapping, non-empty extents in which no two touching
// neighbours share an owner. A VM's RAM is one extent, so the table
// holds O(VMs + donations) entries however large the VMs are, and a
// snapshot is a short slice copy. Frames outside every extent belong to
// HypervisorID.
type ownerTable struct {
	ext []extent
}

// find returns the index of the first extent ending after pa (len(ext)
// if none does).
func (t *ownerTable) find(pa mem.PA) int {
	lo, hi := 0, len(t.ext)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.ext[m].end <= pa {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lookup reports the owner of the frame containing pa.
func (t *ownerTable) lookup(pa mem.PA) VMID {
	if k := t.find(pa); k < len(t.ext) && t.ext[k].base <= pa {
		return t.ext[k].vm
	}
	return HypervisorID
}

// run reports the owner of the frame at pa and where, at or before end,
// the stretch of frames from pa with that owner stops.
func (t *ownerTable) run(pa, end mem.PA) (VMID, mem.PA) {
	k := t.find(pa)
	switch {
	case k == len(t.ext):
		return HypervisorID, end
	case t.ext[k].base > pa:
		return HypervisorID, min(end, t.ext[k].base)
	}
	return t.ext[k].vm, min(end, t.ext[k].end)
}

// assign makes vm the owner of the non-empty range [base, end),
// splitting the extents it cuts and merging the result with same-owner
// neighbours.
func (t *ownerTable) assign(base, end mem.PA, vm VMID) {
	// ext[lo:hi] are the extents that overlap or touch [base, end); they
	// are replaced by at most a left remainder, the new extent and a
	// right remainder.
	lo := t.find(base)
	if lo > 0 && t.ext[lo-1].end == base {
		lo--
	}
	hi := t.find(end)
	if hi < len(t.ext) && t.ext[hi].base <= end {
		hi++
	}
	var repl [3]extent
	n := 0
	mid := extent{base, end, vm}
	if lo < hi && t.ext[lo].base < base {
		if left := t.ext[lo]; left.vm == vm {
			mid.base = left.base
		} else {
			repl[n] = extent{left.base, base, left.vm}
			n++
		}
	}
	repl[n] = mid
	n++
	if lo < hi && t.ext[hi-1].end > end {
		if right := t.ext[hi-1]; right.vm == vm {
			repl[n-1].end = right.end
		} else {
			repl[n] = extent{end, right.end, right.vm}
			n++
		}
	}
	t.ext = slices.Replace(t.ext, lo, hi, repl[:n]...)
}
