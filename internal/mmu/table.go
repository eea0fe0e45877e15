// Package mmu models ARMv8 stage-2 address translation for the simulated
// node: 4-level page tables with a 4 KiB granule (plus 2 MiB block
// mappings), copy-on-write snapshots, and leaf-run walks over a range.
//
// Hafnium's isolation guarantee rests entirely on stage-2 tables, so this
// package is the enforcement point the property tests in internal/hafnium
// attack. Translation costs are not walked here: the TLB refill after a
// VM switch is charged by hafnium's refillCost, and the nested-walk
// slowdown behind RandomAccess's degradation in the paper's Fig 7/8 is
// fitted in internal/workload.
package mmu

import "fmt"

// Address geometry for the 4 KiB granule, 48-bit input and output
// addresses.
const (
	GranuleShift  = 12
	GranuleSize   = 1 << GranuleShift
	LevelBits     = 9
	Levels        = 4
	InputBits     = GranuleShift + Levels*LevelBits // 48
	OutputBits    = 48                              // the descriptor's address field
	BlockShiftL2  = GranuleShift + LevelBits        // 21: 2 MiB blocks at level 2
	BlockSizeL2   = 1 << BlockShiftL2
	inputAddrMask = (uint64(1) << InputBits) - 1
	outAddrMask   = (uint64(1) << OutputBits) - 1
)

// Perms are access permissions on a mapping.
type Perms uint8

// Permission bits.
const (
	PermR Perms = 1 << iota
	PermW
	PermX
	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// Allows reports whether p grants every permission in want.
func (p Perms) Allows(want Perms) bool { return p&want == want }

// String renders the permissions ls-style, for example "rw-".
func (p Perms) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// A descriptor is one 8-byte word of a table node, laid out like the
// architecture's: bit 0 marks it valid, bit 1 marks a table descriptor
// (levels 0–2 only), bits 2–4 hold a leaf's Perms and bits 12–47 a
// leaf's output address. A table descriptor's address field holds the
// child's index in its node's kids instead of a physical address, so
// the descriptor page holds no pointers. An all-zero word is invalid.
const (
	descValid     = 1 << 0
	descTable     = 1 << 1
	descPermShift = 2
	descPermMask  = uint64(PermRWX) << descPermShift
	descAddrMask  = outAddrMask &^ (GranuleSize - 1)
)

func leafDesc(out uint64, perm Perms) uint64 {
	return out | uint64(perm)<<descPermShift | descValid
}

func tableDesc(kid int) uint64 { return uint64(kid)<<GranuleShift | descTable | descValid }

func descPerm(d uint64) Perms { return Perms((d & descPermMask) >> descPermShift) }

func descKid(d uint64) int { return int((d & descAddrMask) >> GranuleShift) }

// page is one table node's 512 descriptors: 4 KiB and pointer-free, so
// the garbage collector never scans it and a copy-on-write copy of a
// node copies 4 KiB.
type page [1 << LevelBits]uint64

// node is one translation table: its descriptor page and the child
// tables its table descriptors index.
type node struct {
	d *page
	// kids holds the child tables by the index in their descriptors'
	// address field; a nil slot is free for the next child.
	kids []*node
	live int // number of valid descriptors, for free-on-empty
	// frozen marks a node owned by a snapshot: it is shared copy-on-write
	// and must never be written through a live table. Mutators own their
	// path from the root down (see own), so a fork costs one node copy
	// per distinct table page dirtied after the snapshot.
	frozen bool
}

// addKid stores child c in a free slot of n.kids and returns its index.
func (n *node) addKid(c *node) int {
	for k, x := range n.kids {
		if x == nil {
			n.kids[k] = c
			return k
		}
	}
	n.kids = append(n.kids, c)
	return len(n.kids) - 1
}

// Table is one translation regime (a stage-1 or stage-2 table).
type Table struct {
	name string
	root *node
	// nodes counts allocated table nodes including the root; exposed so
	// tests can verify unmap releases intermediate tables.
	nodes int
	// mapped counts bytes currently mapped.
	mapped uint64
	// gen counts structural mutations (Map/Unmap/Protect/block splits)
	// and restores. The migration dirty-page model compares generations
	// to tell whether the table changed between two stamps.
	gen uint64
	// free holds nodes an unmap pruned, for new nodes and copy-on-write
	// copies to reuse. A pruned node is all-invalid and private: the
	// unmap owned it before clearing it, so no snapshot can reach it.
	// The list never holds more than peak nodes, the most the table held.
	free []*node
	peak int
}

// NewTable returns an empty translation table.
func NewTable(name string) *Table {
	return &Table{name: name, root: &node{d: new(page)}, nodes: 1, peak: 1}
}

// Name reports the table's debug name.
func (t *Table) Name() string { return t.name }

// Nodes reports the number of live table nodes (≥1 for the root).
func (t *Table) Nodes() int { return t.nodes }

// MappedBytes reports the total bytes currently mapped.
func (t *Table) MappedBytes() uint64 { return t.mapped }

// Gen reports the table's mutation generation: it changes whenever any
// translation could have changed, and never returns to an earlier value.
func (t *Table) Gen() uint64 { return t.gen }

func levelShift(level int) uint { return uint(GranuleShift + (Levels-1-level)*LevelBits) }

func levelIndex(addr uint64, level int) int {
	return int((addr >> levelShift(level)) & ((1 << LevelBits) - 1))
}

// slots reports the descriptors [i, end) of a level-level node whose
// first descriptor translates base that overlap the window [lo, hi).
func slots(level int, base, lo, hi uint64) (i, end int) {
	shift := levelShift(level)
	end = 1 << LevelBits
	if lo > base {
		i = int((lo - base) >> shift)
	}
	if top := (hi - 1 - base) >> shift; top < uint64(end) {
		end = int(top) + 1
	}
	return i, end
}

func checkRange(in, out, size uint64) error {
	if size == 0 {
		return fmt.Errorf("mmu: zero-size mapping")
	}
	if in%GranuleSize != 0 || out%GranuleSize != 0 || size%GranuleSize != 0 {
		return fmt.Errorf("mmu: mapping [%#x→%#x +%#x) not granule aligned", in, out, size)
	}
	if in+size < in || in+size-1 > inputAddrMask {
		return fmt.Errorf("mmu: input range [%#x,%#x) exceeds %d-bit space", in, in+size, InputBits)
	}
	if out+size < out || out+size-1 > outAddrMask {
		return fmt.Errorf("mmu: output range [%#x,%#x) exceeds %d-bit space", out, out+size, OutputBits)
	}
	return nil
}

// alloc returns an all-invalid private node, from the free list when it
// holds one.
func (t *Table) alloc() *node {
	k := len(t.free)
	if k == 0 {
		return &node{d: new(page)}
	}
	n := t.free[k-1]
	t.free[k-1] = nil
	t.free = t.free[:k-1]
	return n
}

// newNode returns an empty private node and counts it.
func (t *Table) newNode() *node {
	t.nodes++
	t.peak = max(t.peak, t.nodes)
	return t.alloc()
}

// release uncounts the emptied node n and keeps it for reuse.
func (t *Table) release(n *node) {
	t.nodes--
	if len(t.free) < t.peak {
		n.kids = n.kids[:0]
		t.free = append(t.free, n)
	}
}

// own returns a node safe to write through t's root path: n itself when
// it is private, or a copy when n is frozen (shared with a snapshot).
// The copy's children become frozen — they are now reachable from two
// trees — which is what makes the sharing transitive without an
// O(subtree) freeze at snapshot time.
func (t *Table) own(n *node) *node {
	if !n.frozen {
		return n
	}
	c := t.alloc()
	*c.d = *n.d
	c.kids = append(c.kids, n.kids...)
	c.live = n.live
	for _, k := range c.kids {
		if k != nil {
			k.frozen = true
		}
	}
	return c
}

// child returns the private child table under n's descriptor i, making
// an empty one when the descriptor is invalid.
func (t *Table) child(n *node, i int) *node {
	if d := n.d[i]; d&descTable != 0 {
		k := descKid(d)
		c := t.own(n.kids[k])
		n.kids[k] = c
		return c
	}
	c := t.newNode()
	n.d[i] = tableDesc(n.addKid(c))
	n.live++
	return c
}

// Map establishes a mapping of [in, in+size) to [out, out+size) with the
// given permissions. 2 MiB-aligned spans use level-2 block descriptors.
// Overlapping an existing mapping is an error (use Unmap first); this
// models the paper's systems, where double-mapping is always a bug.
func (t *Table) Map(in, out, size uint64, perm Perms) error {
	if err := checkRange(in, out, size); err != nil {
		return err
	}
	if perm == 0 {
		return fmt.Errorf("mmu: mapping with no permissions")
	}
	// Pre-validate: reject if any part of the range is already mapped, so
	// a failed Map leaves the table unchanged. The first run starts at
	// the first mapped page.
	var at uint64
	overlap := false
	t.Leaves(in, in+size, func(r Run) bool {
		at, overlap = r.In, true
		return false
	})
	if overlap {
		return fmt.Errorf("mmu: [%#x,%#x) overlaps existing mapping at %#x", in, in+size, at)
	}
	t.root = t.own(t.root)
	t.fill(t.root, 0, 0, in, in+size, out-in, perm)
	t.mapped += size
	t.gen++
	return nil
}

// fill maps the part of [lo, hi) in node n, a level-level node whose
// first descriptor translates base, to the input address plus delta.
// A level-2 descriptor whose whole 2 MiB lies in the range and whose
// output is 2 MiB aligned becomes a block; the rest is mapped by pages.
// Every descriptor of the range is invalid or a table (Map checked).
func (t *Table) fill(n *node, level int, base, lo, hi, delta uint64, perm Perms) {
	shift := levelShift(level)
	i, end := slots(level, base, lo, hi)
	for ; i < end; i++ {
		in := base + uint64(i)<<shift
		size := uint64(1) << shift
		if level == Levels-1 || level == 2 && in >= lo && in+size <= hi && (in+delta)%BlockSizeL2 == 0 {
			n.d[i] = leafDesc(in+delta, perm)
			n.live++
			continue
		}
		t.fill(t.child(n, i), level+1, in, max(lo, in), min(hi, in+size), delta, perm)
	}
}

// Unmap removes all mappings covering [in, in+size). It is an error if
// any page in the range is unmapped. Ranges that partially cover a 2 MiB
// block split the block into pages first, as hardware page-table code
// does on demand.
func (t *Table) Unmap(in, size uint64) error {
	if err := checkRange(in, 0, size); err != nil {
		return err
	}
	if err := t.cover(in, in+size, "unmap"); err != nil {
		return err
	}
	t.root = t.own(t.root)
	t.rewrite(t.root, 0, 0, in, in+size, 0)
	t.mapped -= size
	t.gen++
	return nil
}

// Protect changes the permissions of the already-mapped range
// [in, in+size) without altering translations.
func (t *Table) Protect(in, size uint64, perm Perms) error {
	if err := checkRange(in, 0, size); err != nil {
		return err
	}
	if perm == 0 {
		return fmt.Errorf("mmu: protect with no permissions")
	}
	if err := t.cover(in, in+size, "protect"); err != nil {
		return err
	}
	t.root = t.own(t.root)
	t.rewrite(t.root, 0, 0, in, in+size, perm)
	t.gen++
	return nil
}

// cover checks, in one Leaves walk, that every page of [lo, hi) is
// mapped, and splits the 2 MiB blocks the range covers only in part, so
// that every leaf left in the range lies wholly inside it. It splits as
// far as a page-by-page check in input order gets: the head block
// always, the tail block only when the check passes (a mapped tail
// block ends the range, so a hole always lies before it). A split
// changes no translation, so a failed call still changes none.
func (t *Table) cover(lo, hi uint64, op string) error {
	next := lo // the first page not yet found mapped
	t.Leaves(lo, hi, func(r Run) bool {
		if r.In != next {
			return false
		}
		next += r.Size
		return true
	})
	t.splitPart(lo, lo, hi)
	if next < hi {
		return fmt.Errorf("mmu: %s of unmapped address %#x", op, next)
	}
	t.splitPart(hi-1, lo, hi)
	return nil
}

// splitPart splits the 2 MiB block mapping addr, if there is one, when
// [lo, hi) does not cover all of it.
func (t *Table) splitPart(addr, lo, hi uint64) {
	b := addr &^ (BlockSizeL2 - 1)
	if b >= lo && b+BlockSizeL2 <= hi {
		return
	}
	if _, _, level, ok := t.Translate(addr); ok && level == 2 {
		t.splitBlock(addr)
	}
}

// splitBlock replaces the 2 MiB block covering addr with a level-3 table
// of 512 page descriptors carrying the same translation and permissions.
func (t *Table) splitBlock(addr uint64) {
	t.root = t.own(t.root)
	n := t.root
	for l := 0; l < 2; l++ {
		i := levelIndex(addr, l)
		if n.d[i]&descTable == 0 {
			panic(fmt.Sprintf("mmu: splitBlock(%#x): no block at level 2", addr))
		}
		n = t.child(n, i)
	}
	i := levelIndex(addr, 2)
	d := n.d[i]
	if d&descValid == 0 || d&descTable != 0 {
		panic(fmt.Sprintf("mmu: splitBlock(%#x): descriptor %#x is not a block", addr, d))
	}
	c := t.newNode()
	out, perm := d&descAddrMask, descPerm(d)
	for j := range c.d {
		c.d[j] = leafDesc(out+uint64(j)*GranuleSize, perm)
	}
	c.live = 1 << LevelBits
	n.d[i] = tableDesc(n.addKid(c))
	t.gen++ // the walk level for the range changed
}

// rewrite unmaps the part of [lo, hi) in node n, a level-level node
// whose first descriptor translates base, or, when perm is not 0, sets
// the permissions of its leaves there to perm. Every descriptor of the
// range is valid and every leaf lies wholly inside the range (cover
// checked and split). A child the unmap empties is pruned.
func (t *Table) rewrite(n *node, level int, base, lo, hi uint64, perm Perms) {
	shift := levelShift(level)
	i, end := slots(level, base, lo, hi)
	for ; i < end; i++ {
		d := n.d[i]
		if d&descTable == 0 {
			if perm != 0 {
				n.d[i] = d&^descPermMask | uint64(perm)<<descPermShift
			} else {
				n.d[i] = 0
				n.live--
			}
			continue
		}
		in := base + uint64(i)<<shift
		c := t.child(n, i)
		t.rewrite(c, level+1, in, max(lo, in), min(hi, in+uint64(1)<<shift), perm)
		if c.live == 0 {
			n.kids[descKid(d)] = nil
			n.d[i] = 0
			n.live--
			t.release(c)
		}
	}
}

// Translate walks the table for addr. On success it returns the output
// address, the leaf permissions, and the level at which the leaf was found
// (2 for a block, 3 for a page). The walk cost in memory accesses equals
// level+1 (one descriptor fetch per level visited).
func (t *Table) Translate(addr uint64) (out uint64, perm Perms, level int, ok bool) {
	if addr > inputAddrMask {
		return 0, 0, 0, false
	}
	n := t.root
	for l := 0; l < Levels; l++ {
		d := n.d[levelIndex(addr, l)]
		switch {
		case d&descValid == 0:
			return 0, 0, 0, false
		case d&descTable != 0:
			n = n.kids[descKid(d)]
		default:
			mask := uint64(1)<<levelShift(l) - 1
			return d&descAddrMask | addr&mask, descPerm(d), l, true
		}
	}
	panic("mmu: table deeper than architecture allows")
}
