package mmu

import "fmt"

// refTable is the per-page stage-2 table the descriptor-page Table
// replaced, kept as the reference its range mutations are checked
// against: 32-byte entries that hold their child pointer, a root-to-leaf
// walk per page for Map, Unmap and Protect, and a Translate per page in
// Unmap's and Protect's pre-checks. It shares checkRange with Table and
// leaves out the node free list, which changes no translation or count.
type refTable struct {
	root   *refNode
	nodes  int
	mapped uint64
	gen    uint64
}

type refEntryKind uint8

const (
	refInvalid refEntryKind = iota
	refTableEntry
	refLeaf
)

type refEntry struct {
	kind refEntryKind
	next *refNode
	out  uint64
	perm Perms
}

type refNode struct {
	entries [1 << LevelBits]refEntry
	live    int
	frozen  bool
}

// refState is refTable's snapshot.
type refState struct {
	root   *refNode
	nodes  int
	mapped uint64
}

func newRefTable() *refTable { return &refTable{root: &refNode{}, nodes: 1} }

func refUnfreeze(n *refNode) *refNode {
	if !n.frozen {
		return n
	}
	c := &refNode{entries: n.entries, live: n.live}
	for i := range c.entries {
		if c.entries[i].kind == refTableEntry {
			c.entries[i].next.frozen = true
		}
	}
	return c
}

func (t *refTable) snapshot() *refState {
	t.root.frozen = true
	return &refState{root: t.root, nodes: t.nodes, mapped: t.mapped}
}

func (t *refTable) restore(s *refState) {
	s.root.frozen = true
	t.root, t.nodes, t.mapped = s.root, s.nodes, s.mapped
	t.gen++
}

func (t *refTable) Map(in, out, size uint64, perm Perms) error {
	if err := checkRange(in, out, size); err != nil {
		return err
	}
	if perm == 0 {
		return fmt.Errorf("mmu: mapping with no permissions")
	}
	for off := uint64(0); off < size; off += GranuleSize {
		if _, _, _, ok := t.Translate(in + off); ok {
			return fmt.Errorf("mmu: [%#x,%#x) overlaps existing mapping at %#x", in, in+size, in+off)
		}
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

func (t *refTable) mapLeaf(in, out uint64, perm Perms, leafLevel int) error {
	t.root = refUnfreeze(t.root)
	n := t.root
	for level := 0; level < leafLevel; level++ {
		e := &n.entries[levelIndex(in, level)]
		switch e.kind {
		case refInvalid:
			child := &refNode{}
			t.nodes++
			*e = refEntry{kind: refTableEntry, next: child}
			n.live++
			n = child
		case refTableEntry:
			e.next = refUnfreeze(e.next)
			n = e.next
		case refLeaf:
			return fmt.Errorf("mmu: %#x covered by a level-%d block", in, level)
		}
	}
	e := &n.entries[levelIndex(in, leafLevel)]
	if e.kind != refInvalid {
		return fmt.Errorf("mmu: descriptor for %#x already in use", in)
	}
	*e = refEntry{kind: refLeaf, out: out, perm: perm}
	n.live++
	return nil
}

func (t *refTable) Unmap(in, size uint64) error {
	if err := checkRange(in, 0, size); err != nil {
		return err
	}
	if err := t.precheck(in, size, "unmap"); err != nil {
		return err
	}
	for off := uint64(0); off < size; {
		off += t.unmapLeaf(in + off)
	}
	t.mapped -= size
	t.gen++
	return nil
}

func (t *refTable) Protect(in, size uint64, perm Perms) error {
	if err := checkRange(in, 0, size); err != nil {
		return err
	}
	if perm == 0 {
		return fmt.Errorf("mmu: protect with no permissions")
	}
	if err := t.precheck(in, size, "protect"); err != nil {
		return err
	}
	for off := uint64(0); off < size; {
		off += t.protectLeaf(in+off, perm)
	}
	t.gen++
	return nil
}

// precheck is Unmap's and Protect's page-by-page validation: it splits
// each block the range covers in part as it reaches it, and fails at the
// first unmapped page.
func (t *refTable) precheck(in, size uint64, op string) error {
	for off := uint64(0); off < size; {
		_, _, level, ok := t.Translate(in + off)
		if !ok {
			return fmt.Errorf("mmu: %s of unmapped address %#x", op, in+off)
		}
		if level == 2 {
			if (in+off)%BlockSizeL2 != 0 || size-off < BlockSizeL2 {
				t.splitBlock(in + off)
				continue
			}
			off += BlockSizeL2
			continue
		}
		off += GranuleSize
	}
	return nil
}

func (t *refTable) splitBlock(addr uint64) {
	t.root = refUnfreeze(t.root)
	n := t.root
	for l := 0; l < 2; l++ {
		e := &n.entries[levelIndex(addr, l)]
		e.next = refUnfreeze(e.next)
		n = e.next
	}
	e := &n.entries[levelIndex(addr, 2)]
	child := &refNode{live: 1 << LevelBits}
	t.nodes++
	for i := range child.entries {
		child.entries[i] = refEntry{kind: refLeaf, out: e.out + uint64(i)*GranuleSize, perm: e.perm}
	}
	*e = refEntry{kind: refTableEntry, next: child}
	t.gen++
}

func (t *refTable) unmapLeaf(addr uint64) uint64 {
	var path [Levels]*refNode
	t.root = refUnfreeze(t.root)
	n := t.root
	for level := 0; ; level++ {
		path[level] = n
		e := &n.entries[levelIndex(addr, level)]
		if e.kind == refLeaf {
			size := uint64(GranuleSize)
			if level == 2 {
				size = BlockSizeL2
			}
			*e = refEntry{}
			n.live--
			for l := level; l > 0 && path[l].live == 0; l-- {
				parent := path[l-1]
				parent.entries[levelIndex(addr, l-1)] = refEntry{}
				parent.live--
				t.nodes--
			}
			return size
		}
		e.next = refUnfreeze(e.next)
		n = e.next
	}
}

func (t *refTable) protectLeaf(addr uint64, perm Perms) uint64 {
	t.root = refUnfreeze(t.root)
	n := t.root
	for l := 0; ; l++ {
		e := &n.entries[levelIndex(addr, l)]
		if e.kind == refLeaf {
			e.perm = perm
			if l == 2 {
				return BlockSizeL2
			}
			return GranuleSize
		}
		e.next = refUnfreeze(e.next)
		n = e.next
	}
}

func (t *refTable) Translate(addr uint64) (out uint64, perm Perms, level int, ok bool) {
	if addr > inputAddrMask {
		return 0, 0, 0, false
	}
	n := t.root
	for l := 0; l < Levels; l++ {
		e := &n.entries[levelIndex(addr, l)]
		switch e.kind {
		case refInvalid:
			return 0, 0, 0, false
		case refLeaf:
			mask := uint64(GranuleSize - 1)
			if l == 2 {
				mask = BlockSizeL2 - 1
			}
			return e.out | (addr & mask), e.perm, l, true
		case refTableEntry:
			n = e.next
		}
	}
	panic("mmu: reference table deeper than architecture allows")
}
