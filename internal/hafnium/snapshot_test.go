package hafnium

import (
	"fmt"
	"testing"

	"khsim/internal/sim"
	"khsim/internal/timer"
)

const warmRestartManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm victim]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
max_restarts = 4
restart_backoff_us = 100
restart_from_snapshot = true
`

// TestWarmRestartFromSnapshot crashes a VM whose manifest opts into
// restart_from_snapshot and checks the watchdog serves the restart from
// the boot-time warm stage-2 snapshot: the restart happens, the counter
// and metric tick, the RAM scrub is still charged, and the revived VM's
// mappings are intact.
func TestWarmRestartFromSnapshot(t *testing.T) {
	h, _ := buildTestSystem(t, warmRestartManifest, map[string]GuestOS{
		"victim": &stubGuest{workChunk: sim.FromMicros(50), chunks: 1000},
	})
	victim, _ := h.VMByName("victim")
	scrubbed := h.Stats().ScrubbedPages

	if err := h.InjectVMFault(victim.ID(), "test warm restart"); err != nil {
		t.Fatal(err)
	}
	h.Node().Engine.RunAll()

	st := h.Stats()
	if st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
	if st.SnapshotRestores != 1 {
		t.Fatalf("SnapshotRestores = %d, want 1 (restart took the cold path)", st.SnapshotRestores)
	}
	if victim.State() != VMRunning {
		t.Fatalf("victim is %v after warm restart, want running", victim.State())
	}
	if st.ScrubbedPages <= scrubbed {
		t.Fatal("warm restart skipped the RAM scrub")
	}
	if err := h.VerifyIsolation(); err != nil {
		t.Fatalf("isolation broken after warm restart: %v", err)
	}
}

// TestColdRestartWithoutOptIn is the control: the same crash without
// restart_from_snapshot must rebuild the stage-2 cold and leave the
// warm-restore counter at zero.
func TestColdRestartWithoutOptIn(t *testing.T) {
	h, _ := buildTestSystem(t, `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm victim]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
max_restarts = 4
restart_backoff_us = 100
`, map[string]GuestOS{
		"victim": &stubGuest{workChunk: sim.FromMicros(50), chunks: 1000},
	})
	victim, _ := h.VMByName("victim")
	if err := h.InjectVMFault(victim.ID(), "test cold restart"); err != nil {
		t.Fatal(err)
	}
	h.Node().Engine.RunAll()
	st := h.Stats()
	if st.Restarts != 1 || st.SnapshotRestores != 0 {
		t.Fatalf("Restarts=%d SnapshotRestores=%d, want 1/0", st.Restarts, st.SnapshotRestores)
	}
}

// TestNodeRestoreReplaysCrashIdentically quiesces a booted system, takes
// a whole-node snapshot, drives a crash-and-restart episode to
// completion, rewinds, and drives the identical episode again: the
// hypervisor counters, VM state and trace length must match exactly, and
// the lifecycle hook must observe the same event sequence both times.
func TestNodeRestoreReplaysCrashIdentically(t *testing.T) {
	h, _ := buildTestSystem(t, warmRestartManifest, map[string]GuestOS{
		"victim": &stubGuest{workChunk: sim.FromMicros(50), chunks: 4},
	})
	node := h.Node()
	victim, _ := h.VMByName("victim")
	var events []string
	h.SetLifecycleHook(func(ev LifecycleEvent) {
		events = append(events, fmt.Sprintf("%s %s r=%d", ev.Kind, ev.VM, ev.Restarts))
	})
	node.Engine.RunAll() // quiesce: guest work done, nothing pending

	snap := node.Snapshot()
	episode := func() (Stats, VMState, int, []string) {
		events = nil
		if err := h.InjectVMFault(victim.ID(), "replay probe"); err != nil {
			t.Fatal(err)
		}
		node.Engine.RunAll()
		return h.Stats(), victim.State(), node.Trace.Len(), append([]string(nil), events...)
	}

	stats1, vm1, trace1, ev1 := episode()
	node.Restore(snap)
	if got := h.Stats(); got.Restarts != 0 || got.Aborts != 0 {
		t.Fatalf("restore left crash counters set: %+v", got)
	}
	stats2, vm2, trace2, ev2 := episode()

	if stats1 != stats2 {
		t.Fatalf("replayed stats differ:\n  first:  %+v\n  second: %+v", stats1, stats2)
	}
	if vm1 != vm2 {
		t.Fatalf("replayed VM state differs: %v vs %v", vm1, vm2)
	}
	if trace1 != trace2 {
		t.Fatalf("replayed trace length differs: %d vs %d", trace1, trace2)
	}
	if fmt.Sprint(ev1) != fmt.Sprint(ev2) {
		t.Fatalf("replayed lifecycle events differ:\n  first:  %v\n  second: %v", ev1, ev2)
	}
	if len(ev1) < 2 {
		t.Fatalf("episode produced %d lifecycle events, want crash+restart: %v", len(ev1), ev1)
	}
}

// TestSnapshotInsideEntryWindow takes a node snapshot while an el2.run
// entry is restoring a switched-out guest's frames, after which the
// frames are held by neither the core nor the VCPU's saved stack. The
// replay after a restore must resume the same suspended work: same
// completion time, busy time and event count.
func TestSnapshotInsideEntryWindow(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(100), chunks: 1}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	p.rerun = true
	node := h.Node()
	c := node.Cores[0]
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	if err := h.RunVCPU(c, vc); err != nil {
		t.Fatal(err)
	}
	// A primary-owned tick 30 µs into the guest's chunk switches it out
	// with the chunk suspended; the stub primary then re-runs it.
	node.Timers.Core(0).Arm(timer.Phys, sim.Time(sim.FromMicros(30)))
	for !(len(vc.entering) > 0 && c.Current() != nil && c.Current().Label == "el2.run") {
		if !node.Engine.Step() {
			t.Fatal("the guest was never re-entered with saved frames")
		}
	}
	snap := node.Snapshot()
	run := func() string {
		node.Engine.RunAll()
		return fmt.Sprintf("now=%v busy=%v fired=%d", node.Now(), c.BusyTime(), node.Engine.Fired())
	}
	first := run()
	if g.completed != 1 {
		t.Fatalf("guest completed %d chunks, want 1", g.completed)
	}
	node.Restore(snap)
	if second := run(); second != first {
		t.Fatalf("replay from inside the entry window diverged:\n  first:  %s\n  second: %s", first, second)
	}
}

// TestSnapshotInsideExitWindow takes a node snapshot while a yielding
// guest's el2.exit completion is in flight, so the exit reason is held
// only by the pooled activity. The divergent run re-enters the VCPU,
// which blocks at once and re-mints that activity with another reason;
// the replay after a restore must still report the yield, and end in the
// same state.
func TestSnapshotInsideExitWindow(t *testing.T) {
	g := &stubGuest{workChunk: sim.FromMicros(100), chunks: 1, exit: ExitYield}
	h, p := buildTestSystem(t, basicManifest, map[string]GuestOS{"job": g})
	node := h.Node()
	c := node.Cores[0]
	job, _ := h.VMByName("job")
	vc := job.VCPU(0)
	if err := h.RunVCPU(c, vc); err != nil {
		t.Fatal(err)
	}
	for !(c.Current() != nil && c.Current().Label == "el2.exit") {
		if !node.Engine.Step() {
			t.Fatal("the guest never exited")
		}
	}
	snap := node.Snapshot()
	run := func() string {
		p.exits = nil
		node.Engine.RunAll()
		if err := h.RunVCPU(c, vc); err != nil {
			t.Fatal(err)
		}
		node.Engine.RunAll()
		return fmt.Sprintf("exits=%v now=%v busy=%v fired=%d", p.exits, node.Now(), c.BusyTime(), node.Engine.Fired())
	}
	first := run()
	if want := fmt.Sprint([]ExitReason{ExitYield, ExitBlocked}); fmt.Sprint(p.exits) != want {
		t.Fatalf("exits %v, want %s", p.exits, want)
	}
	node.Restore(snap)
	if second := run(); second != first {
		t.Fatalf("replay from inside the exit window diverged:\n  first:  %s\n  second: %s", first, second)
	}
}

// TestSnapshotRestoresMailboxPayload takes a node snapshot while a
// message waits in a VM's mailbox. Every later send to that VM writes
// into the same receive buffer, yet each restore brings back the
// snapshot's payload bytes: the snapshot holds its own copy, and Restore
// copies it back into the buffer.
func TestSnapshotRestoresMailboxPayload(t *testing.T) {
	h, _ := buildTestSystem(t, basicManifest, map[string]GuestOS{
		"job": &stubGuest{workChunk: sim.FromMicros(10), chunks: 1},
	})
	node := h.Node()
	job, _ := h.VMByName("job")
	if err := h.SendFromPrimary(job.ID(), []byte("admit 7")); err != nil {
		t.Fatal(err)
	}
	snap := node.Snapshot()
	for round := 0; round < 2; round++ {
		first, err := h.msgRecv(job.ID())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.SendFromPrimary(job.ID(), []byte("done 91")); err != nil {
			t.Fatal(err)
		}
		later, err := h.msgRecv(job.ID())
		if err != nil {
			t.Fatal(err)
		}
		if string(later.Payload) != "done 91" || &later.Payload[0] != &first.Payload[0] {
			t.Fatalf("round %d: later send %q did not reuse the receive buffer", round, later.Payload)
		}
		node.Restore(snap)
		msg, err := h.msgRecv(job.ID())
		if err != nil {
			t.Fatalf("round %d: mailbox empty after restore: %v", round, err)
		}
		if msg.From != PrimaryID || string(msg.Payload) != "admit 7" {
			t.Fatalf("round %d: restored message = %d %q, want %d %q", round, msg.From, msg.Payload, PrimaryID, "admit 7")
		}
		node.Restore(snap)
	}
}
