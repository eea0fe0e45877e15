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

// Address geometry for the 4 KiB granule, 48-bit input addresses.
const (
	GranuleShift  = 12
	GranuleSize   = 1 << GranuleShift
	LevelBits     = 9
	Levels        = 4
	InputBits     = GranuleShift + Levels*LevelBits // 48
	BlockShiftL2  = GranuleShift + LevelBits        // 21: 2 MiB blocks at level 2
	BlockSizeL2   = 1 << BlockShiftL2
	inputAddrMask = (uint64(1) << InputBits) - 1
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

// entryKind distinguishes descriptor types in a table node.
type entryKind uint8

const (
	entryInvalid entryKind = iota
	entryTable             // points to a next-level node
	entryLeaf              // page (level 3) or block (level 2) mapping
)

type entry struct {
	kind entryKind
	next *node  // entryTable
	out  uint64 // entryLeaf: output base address
	perm Perms  // entryLeaf
}

// node is one 512-entry translation table.
type node struct {
	entries [1 << LevelBits]entry
	live    int // number of non-invalid entries, for free-on-empty
	// frozen marks a node owned by a snapshot: it is shared copy-on-write
	// and must never be written through a live table. Mutators unfreeze
	// their path from the root down (see unfreeze), so a fork costs one
	// node copy per distinct table page dirtied after the snapshot.
	frozen bool
}

// unfreeze returns a node safe to write through t's root path: n itself
// when it is privately owned, or a copy when n is frozen (shared with a
// snapshot). The copy's table children become frozen — they are now
// reachable from two trees — which is what makes the sharing transitive
// without an O(subtree) freeze at snapshot time.
func unfreeze(n *node) *node {
	if !n.frozen {
		return n
	}
	c := &node{entries: n.entries, live: n.live}
	for i := range c.entries {
		if c.entries[i].kind == entryTable {
			c.entries[i].next.frozen = true
		}
	}
	return c
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
	// free holds nodes unmapLeaf pruned, for mapLeaf and splitBlock to
	// reuse. A pruned node is all-invalid and private: unmapLeaf
	// unfreezes its whole path first, so no snapshot can reach it. The
	// list never holds more than peak nodes, the most the table held.
	free []*node
	peak int
}

// NewTable returns an empty translation table.
func NewTable(name string) *Table {
	return &Table{name: name, root: &node{}, nodes: 1, peak: 1}
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

func levelIndex(addr uint64, level int) int {
	shift := GranuleShift + (Levels-1-level)*LevelBits
	return int((addr >> shift) & ((1 << LevelBits) - 1))
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
	return nil
}

// newNode returns an empty private node, recycled from the free list
// when it holds one, and counts it.
func (t *Table) newNode() *node {
	t.nodes++
	t.peak = max(t.peak, t.nodes)
	k := len(t.free)
	if k == 0 {
		return &node{}
	}
	n := t.free[k-1]
	t.free[k-1] = nil
	t.free = t.free[:k-1]
	return n
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
	for off := uint64(0); off < size; {
		ia, oa := in+off, out+off
		if ia%BlockSizeL2 == 0 && oa%BlockSizeL2 == 0 && size-off >= BlockSizeL2 {
			if err := t.mapLeaf(ia, oa, perm, 2); err != nil {
				return err
			}
			off += BlockSizeL2
			continue
		}
		if err := t.mapLeaf(ia, oa, perm, 3); err != nil {
			return err
		}
		off += GranuleSize
	}
	t.mapped += size
	t.gen++
	return nil
}

func (t *Table) mapLeaf(in, out uint64, perm Perms, leafLevel int) error {
	t.root = unfreeze(t.root)
	n := t.root
	for level := 0; level < leafLevel; level++ {
		idx := levelIndex(in, level)
		e := &n.entries[idx]
		switch e.kind {
		case entryInvalid:
			child := t.newNode()
			*e = entry{kind: entryTable, next: child}
			n.live++
			n = child
		case entryTable:
			e.next = unfreeze(e.next)
			n = e.next
		case entryLeaf:
			return fmt.Errorf("mmu: %#x covered by a level-%d block", in, level)
		}
	}
	idx := levelIndex(in, leafLevel)
	e := &n.entries[idx]
	if e.kind != entryInvalid {
		return fmt.Errorf("mmu: descriptor for %#x already in use", in)
	}
	*e = entry{kind: entryLeaf, out: out, perm: perm}
	n.live++
	return nil
}

// Unmap removes all mappings covering [in, in+size). It is an error if
// any page in the range is unmapped. Ranges that partially cover a 2 MiB
// block split the block into pages first, as hardware page-table code
// does on demand.
func (t *Table) Unmap(in, size uint64) error {
	if err := checkRange(in, 0, size); err != nil {
		return err
	}
	// Validate first so a failed Unmap is atomic. Block splits performed
	// here do not change any translation, so atomicity is preserved.
	for off := uint64(0); off < size; {
		_, _, level, ok := t.Translate(in + off)
		if !ok {
			return fmt.Errorf("mmu: unmap of unmapped address %#x", in+off)
		}
		if level == 2 {
			ia := in + off
			if ia%BlockSizeL2 != 0 || size-off < BlockSizeL2 {
				t.splitBlock(ia)
				continue
			}
			off += BlockSizeL2
			continue
		}
		off += GranuleSize
	}
	for off := uint64(0); off < size; {
		step := t.unmapLeaf(in + off)
		off += step
	}
	t.mapped -= size
	t.gen++
	return nil
}

// splitBlock replaces the 2 MiB block covering addr with a level-3 table
// of 512 page descriptors carrying the same translation and permissions.
func (t *Table) splitBlock(addr uint64) {
	t.root = unfreeze(t.root)
	n := t.root
	for l := 0; l < 2; l++ {
		e := &n.entries[levelIndex(addr, l)]
		if e.kind != entryTable {
			panic(fmt.Sprintf("mmu: splitBlock(%#x): no block at level 2", addr))
		}
		e.next = unfreeze(e.next)
		n = e.next
	}
	e := &n.entries[levelIndex(addr, 2)]
	if e.kind != entryLeaf {
		panic(fmt.Sprintf("mmu: splitBlock(%#x): descriptor is %d, not a block", addr, e.kind))
	}
	child := t.newNode()
	child.live = 1 << LevelBits
	for i := range child.entries {
		child.entries[i] = entry{kind: entryLeaf, out: e.out + uint64(i)*GranuleSize, perm: e.perm}
	}
	*e = entry{kind: entryTable, next: child}
	t.gen++ // the walk level for the range changed
}

// unmapLeaf removes the leaf covering addr, prunes empty nodes onto the
// free list and returns the size of the removed leaf.
func (t *Table) unmapLeaf(addr uint64) uint64 {
	var path [Levels]*node
	t.root = unfreeze(t.root)
	n := t.root
	level := 0
	for {
		path[level] = n
		e := &n.entries[levelIndex(addr, level)]
		if e.kind == entryLeaf {
			size := uint64(GranuleSize)
			if level == 2 {
				size = BlockSizeL2
			}
			*e = entry{}
			n.live--
			// Prune now-empty intermediate nodes bottom-up.
			for l := level; l > 0 && path[l].live == 0; l-- {
				parent := path[l-1]
				pe := &parent.entries[levelIndex(addr, l-1)]
				*pe = entry{}
				parent.live--
				t.nodes--
				if len(t.free) < t.peak {
					t.free = append(t.free, path[l])
				}
			}
			return size
		}
		e.next = unfreeze(e.next)
		n = e.next
		level++
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
		e := &n.entries[levelIndex(addr, l)]
		switch e.kind {
		case entryInvalid:
			return 0, 0, 0, false
		case entryLeaf:
			mask := uint64(GranuleSize - 1)
			if l == 2 {
				mask = BlockSizeL2 - 1
			}
			return e.out | (addr & mask), e.perm, l, true
		case entryTable:
			n = e.next
		}
	}
	panic("mmu: table deeper than architecture allows")
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
	// Validate coverage first for atomicity.
	for off := uint64(0); off < size; {
		_, _, level, ok := t.Translate(in + off)
		if !ok {
			return fmt.Errorf("mmu: protect of unmapped address %#x", in+off)
		}
		if level == 2 {
			if (in+off)%BlockSizeL2 != 0 || size-off < BlockSizeL2 {
				t.splitBlock(in + off)
				continue
			}
			off += BlockSizeL2
		} else {
			off += GranuleSize
		}
	}
	for off := uint64(0); off < size; {
		step := t.protectLeaf(in+off, perm)
		off += step
	}
	t.gen++
	return nil
}

func (t *Table) protectLeaf(addr uint64, perm Perms) uint64 {
	t.root = unfreeze(t.root)
	n := t.root
	for l := 0; l < Levels; l++ {
		e := &n.entries[levelIndex(addr, l)]
		if e.kind == entryLeaf {
			e.perm = perm
			if l == 2 {
				return BlockSizeL2
			}
			return GranuleSize
		}
		e.next = unfreeze(e.next)
		n = e.next
	}
	panic("mmu: protect walked off the table")
}
