package harness

import (
	"testing"

	"khsim/internal/machine"
)

// TestMigrationSuite runs the live-migration sweep end to end: three
// clean cells with growing working sets and one fault cell that
// partitions the target mid-transfer. Check enforces the headline
// invariants (exactly one live copy per cell, signed ledger converged,
// downtime monotone in working set); the assertions below pin the shape
// of the individual cells.
func TestMigrationSuite(t *testing.T) {
	rep, err := RunMigrationSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("%v\n%s", err, rep.Summary())
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("ran %d cells, want 4", len(rep.Cells))
	}
	var sawKill bool
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if !c.Kill {
			// Clean cells complete on the target with multiple pre-copy
			// rounds and real bytes on the wire.
			if c.Outcome != machine.MigrationCompleted {
				t.Errorf("clean cell ws=%d: outcome %v", c.WorkingSetPages, c.Outcome)
			}
			if len(c.Rounds) < 2 {
				t.Errorf("clean cell ws=%d: only %d rounds (no pre-copy happened)", c.WorkingSetPages, len(c.Rounds))
			}
			if c.Bytes <= 16<<20 {
				t.Errorf("clean cell ws=%d: shipped %d bytes, want more than the job VM's 16 MB of RAM", c.WorkingSetPages, c.Bytes)
			}
			if c.SrcStats.MigratedOut != 1 || c.DstStats.MigratedIn != 1 {
				t.Errorf("clean cell ws=%d: migrate counters src=%+v dst=%+v", c.WorkingSetPages, c.SrcStats, c.DstStats)
			}
			continue
		}
		sawKill = true
		// The fault cell must resolve to exactly one side. With the
		// target partitioned at 25 ms and healed at 60 ms, the commit
		// handshake nacks and the source rolls back.
		if c.Outcome != machine.MigrationAborted {
			t.Errorf("kill cell: outcome %v, want aborted", c.Outcome)
		}
		if c.LiveOn != 0 {
			t.Errorf("kill cell: job live on node %d, want rolled back to source 0", c.LiveOn)
		}
		if c.SrcStats.MigrationAborts != 1 {
			t.Errorf("kill cell: src aborts = %d, want 1", c.SrcStats.MigrationAborts)
		}
		if c.Fabric.DroppedPartitionInFlight == 0 && c.Fabric.DroppedPartition == 0 {
			t.Error("kill cell: partition dropped nothing")
		}
		if !c.LedgerAbort {
			t.Error("kill cell: no migrate-abort record in the committed ledger")
		}
	}
	if !sawKill {
		t.Fatal("sweep had no kill cell")
	}
	// Downtime must strictly grow across the clean working-set sweep:
	// the stop-and-copy round ships the last window's dirty set, which
	// scales with the working set.
	var last int64 = -1
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Kill {
			continue
		}
		if int64(c.Downtime) <= last {
			t.Fatalf("downtime not strictly increasing: ws=%d downtime=%v after %v",
				c.WorkingSetPages, c.Downtime, last)
		}
		last = int64(c.Downtime)
	}
}
