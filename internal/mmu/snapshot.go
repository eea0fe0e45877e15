package mmu

import (
	"fmt"

	"khsim/internal/sim"
)

// tableState is Table's Snapshot payload: the root of a frozen
// copy-on-write tree plus the scalar accounting.
type tableState struct {
	root   *node
	nodes  int
	mapped uint64
}

// Snapshot captures the table in O(1): the root node is frozen and
// shared, and any later mutation through the live table copies only the
// nodes on its walk path (copy-on-write), so a fork costs O(dirty table
// pages), not O(mapped pages). Table implements sim.Snapshotter.
func (t *Table) Snapshot() sim.State {
	t.root.frozen = true
	return &tableState{root: t.root, nodes: t.nodes, mapped: t.mapped}
}

// Restore points the table back at a snapshot's frozen tree. The
// mutation generation is NOT rolled back: it advances past both the
// current and any previously observed value. A reader that compares
// generations (the migration dirty-page model's MigrationStamp.Gen)
// must never see a restored table report a generation it recorded on
// the abandoned timeline, or it would take a changed table for an
// unchanged one.
func (t *Table) Restore(st sim.State) {
	s, ok := st.(*tableState)
	if !ok {
		panic(fmt.Sprintf("mmu: Table.Restore of foreign state %T", st))
	}
	s.root.frozen = true // the snapshot keeps ownership; divergence copies
	t.root = s.root
	t.nodes = s.nodes
	t.mapped = s.mapped
	t.gen++
}
