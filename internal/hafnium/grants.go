package hafnium

import (
	"fmt"
	"slices"

	"khsim/internal/mem"
)

// frameRun is one contiguous stretch of frames [base, end) held by the
// active grant g.
type frameRun struct {
	base, end mem.PA
	g         *Grant
}

// grantIndex maps frames to the active grants that hold them, as a
// sorted slice of non-overlapping runs, one per contiguous frame run of
// each grant (ShareMemory keeps at most one active grant per frame). A
// VM's RAM is one physical range, so a grant of a window of it is one
// run, and the index holds O(grants) entries however many pages they
// cover.
type grantIndex struct {
	runs []frameRun
}

// frameRuns calls fn with each stretch of consecutive frames in pages,
// in list order: the stretch starts at pages[i] and is n frames long.
func frameRuns(pages []mem.PA, fn func(i int, base mem.PA, n int)) {
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+mem.PageSize {
			j++
		}
		fn(i, pages[i], j-i)
		i = j
	}
}

// find returns the index of the first run ending after pa (len(runs) if
// none does).
func (x *grantIndex) find(pa mem.PA) int {
	lo, hi := 0, len(x.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.runs[m].end <= pa {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lookup returns the active grant holding the frame at pa, or nil.
func (x *grantIndex) lookup(pa mem.PA) *Grant {
	if k := x.find(pa); k < len(x.runs) && x.runs[k].base <= pa {
		return x.runs[k].g
	}
	return nil
}

// next returns the first run that ends after pa and starts before end,
// and whether there is one.
func (x *grantIndex) next(pa, end mem.PA) (frameRun, bool) {
	if k := x.find(pa); k < len(x.runs) && x.runs[k].base < end {
		return x.runs[k], true
	}
	return frameRun{}, false
}

// add indexes the frames of g, none of which may be indexed already.
func (x *grantIndex) add(g *Grant) {
	frameRuns(g.Pages, func(_ int, base mem.PA, n int) {
		x.runs = slices.Insert(x.runs, x.find(base), frameRun{base, base + mem.PA(n)*mem.PageSize, g})
	})
}

// drop removes the frames of g, which add indexed. g may be a copy of
// the indexed grant (revokeGrants walks copies), so runs are matched by
// grant ID.
func (x *grantIndex) drop(g *Grant) {
	frameRuns(g.Pages, func(_ int, base mem.PA, _ int) {
		k := x.find(base)
		if k == len(x.runs) || x.runs[k].base != base || x.runs[k].g.ID != g.ID {
			panic(fmt.Sprintf("hafnium: grant %d has no index run at frame %#x", g.ID, uint64(base)))
		}
		x.runs = slices.Delete(x.runs, k, k+1)
	})
}

// refill re-indexes exactly the grants in shares, reusing the slice.
// add keeps the runs sorted, so the map's order does not matter.
func (x *grantIndex) refill(shares map[uint64]*Grant) {
	x.runs = x.runs[:0]
	for _, g := range shares {
		x.add(g)
	}
}
