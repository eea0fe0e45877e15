// Package mem models the physical address space of the simulated node: a
// region map describing DRAM, MMIO windows and TrustZone secure carve-outs,
// plus a buddy allocator for physical frames (the allocator Kitten's
// memory manager and Hafnium's partition builder both draw from).
package mem

import (
	"fmt"
	"sort"
)

// PA is a physical address on the simulated node.
type PA uint64

// Size constants for the 4 KiB granule the node uses throughout.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// PageAlign rounds a down to a page boundary.
func PageAlign(a PA) PA { return a &^ PA(PageMask) }

// PageAligned reports whether a is page aligned.
func PageAligned(a PA) bool { return a&PA(PageMask) == 0 }

// PagesFor reports the number of pages needed to hold size bytes.
func PagesFor(size uint64) uint64 { return (size + PageSize - 1) / PageSize }

// Attr describes a region's memory attributes.
type Attr struct {
	Device bool // MMIO (device-nGnRE) rather than normal cacheable memory
	Secure bool // TrustZone secure world
}

// Region is a contiguous span of physical address space.
type Region struct {
	Name string
	Base PA
	Size uint64
	Attr Attr
}

// End reports the first address past the region.
func (r Region) End() PA { return r.Base + PA(r.Size) }

// Contains reports whether [a, a+n) lies inside the region.
func (r Region) Contains(a PA, n uint64) bool {
	return a >= r.Base && a+PA(n) <= r.End() && a+PA(n) >= a
}

// Overlaps reports whether the two regions share any byte.
func (r Region) Overlaps(o Region) bool {
	return r.Base < o.End() && o.Base < r.End()
}

// String renders the region as its name, range, kind and world, for
// example "dram [0x40000000,0x80000000) normal/ns".
func (r Region) String() string {
	k := "normal"
	if r.Attr.Device {
		k = "device"
	}
	w := "ns"
	if r.Attr.Secure {
		w = "secure"
	}
	return fmt.Sprintf("%s [%#x,%#x) %s/%s", r.Name, uint64(r.Base), uint64(r.End()), k, w)
}

// Map is the node's physical memory map. Regions never overlap.
type Map struct {
	regions []Region // sorted by Base
}

// NewMap returns an empty memory map.
func NewMap() *Map { return &Map{} }

// Add inserts a region, rejecting overlaps and zero sizes.
func (m *Map) Add(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("mem: region %q has zero size", r.Name)
	}
	if r.End() < r.Base {
		return fmt.Errorf("mem: region %q wraps the address space", r.Name)
	}
	for _, e := range m.regions {
		if e.Overlaps(r) {
			return fmt.Errorf("mem: region %q overlaps %q", r.Name, e.Name)
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	return nil
}

// Find returns the region containing a, if any.
func (m *Map) Find(a PA) (Region, bool) {
	if r, ok := m.Next(a); ok && r.Contains(a, 1) {
		return r, true
	}
	return Region{}, false
}

// Next returns the first region ending after a: the region containing
// a if there is one, else the lowest region above a. A range scan calls
// it to step from region to region.
func (m *Map) Next(a PA) (Region, bool) {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].End() > a })
	if i < len(m.regions) {
		return m.regions[i], true
	}
	return Region{}, false
}

// FindName returns the region named name, if any.
func (m *Map) FindName(name string) (Region, bool) {
	for _, r := range m.regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// Regions returns the regions sorted by base address.
func (m *Map) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// TotalBytes reports the total size of regions matching the filter
// (nil filter matches all).
func (m *Map) TotalBytes(filter func(Region) bool) uint64 {
	var t uint64
	for _, r := range m.regions {
		if filter == nil || filter(r) {
			t += r.Size
		}
	}
	return t
}
