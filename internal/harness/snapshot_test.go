package harness

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"khsim/internal/core"
	"khsim/internal/sim"
)

// TestSnapshotCheckHoldsContract runs the full-stack fork-determinism
// experiment and requires every clause of the contract: restored and
// forked timelines bit-identical to the uninterrupted run, and the
// fault-injected fork diverging through the warm-restore path.
func TestSnapshotCheckHoldsContract(t *testing.T) {
	rep, err := RunSnapshotCheck(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Forks != 3 {
		t.Fatalf("ran %d forked timelines, want 3", rep.Forks)
	}
	if rep.EndAt <= rep.SnapAt {
		t.Fatalf("comparison point %v not after snapshot point %v", rep.EndAt, rep.SnapAt)
	}
}

// TestForkReplayInsideEL2AndTickWindows forks a running secure node at
// each of 300 consecutive events, so forks land inside EL2 trap,
// injection, world-switch and entry windows and inside primary ticks,
// where the per-call state (an IRQ, a VIRQ, saved frames) rides in a
// pooled activity or a snapshotted VCPU field. From each fork point the
// node runs 5 ms twice, restoring in between, and both runs must end in
// the same state: clock, fired events, per-core busy time and metrics.
func TestForkReplayInsideEL2AndTickWindows(t *testing.T) {
	cases := []struct {
		sched   core.Scheduler
		windows []string // activity labels some fork must land inside
	}{
		{core.SchedulerKitten, []string{"el2.trap", "el2.inject", "el2.run"}},
		{core.SchedulerLinux, []string{"el2.trap", "el2.worldswitch", "el2.run", "linux.tick"}},
	}
	for _, tc := range cases {
		t.Run(tc.sched.String(), func(t *testing.T) {
			n := startSelfishNode(t, tc.sched, sim.FromSeconds(1))
			m := n.Machine
			n.Run(20 * sim.Millisecond)
			fingerprint := func() string {
				var b strings.Builder
				fmt.Fprintf(&b, "now=%v fired=%d", m.Now(), m.Engine.Fired())
				for _, c := range m.Cores {
					fmt.Fprintf(&b, " busy%d=%v", c.ID(), c.BusyTime())
				}
				b.WriteString("\n" + m.SnapshotMetrics().Text())
				return b.String()
			}
			windows := map[string]int{}
			for i := 0; i < 300; i++ {
				for _, c := range m.Cores {
					if a := c.Current(); a != nil {
						windows[a.Label]++
					}
				}
				snap := m.Snapshot()
				n.Run(5 * sim.Millisecond)
				first := fingerprint()
				m.Restore(snap)
				n.Run(5 * sim.Millisecond)
				if second := fingerprint(); second != first {
					t.Fatalf("fork %d at %v: replay diverged:\n  first:  %.300s\n  second: %.300s", i, m.Now(), first, second)
				}
				m.Restore(snap)
				if !m.Engine.Step() {
					t.Fatalf("fork %d: the node ran out of events", i)
				}
			}
			var seen []string
			for label, k := range windows {
				seen = append(seen, fmt.Sprintf("%s=%d", label, k))
			}
			sort.Strings(seen)
			t.Logf("fork points by running activity: %s", strings.Join(seen, " "))
			for _, w := range tc.windows {
				if windows[w] == 0 {
					t.Errorf("no fork landed inside %s", w)
				}
			}
		})
	}
}

// TestSnapshotCheckArtifactDeterministic pins the obscheck gate's
// assumption: two same-seed experiment runs in fresh stacks render
// byte-identical artifacts, and a different seed does not.
func TestSnapshotCheckArtifactDeterministic(t *testing.T) {
	a, err := RunSnapshotCheck(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSnapshotCheck(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifact() != b.Artifact() {
		t.Fatal("same-seed snapshot-check artifacts differ across runs")
	}
	c, err := RunSnapshotCheck(4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifact() == c.Artifact() {
		t.Fatal("different seeds produced identical artifacts")
	}
}

// TestForkSweepCells runs the fork-based sweep over a fault-delay axis
// and checks cell semantics: the control cell sees no crash, every kill
// cell sees exactly one crash served by a warm restore, and identical
// delays land in identical cells (the fork isolation property).
func TestForkSweepCells(t *testing.T) {
	kills := []sim.Duration{
		-1,
		1 * sim.Millisecond,
		3 * sim.Millisecond,
		1 * sim.Millisecond, // repeat of cell 1: forks must not leak state
	}
	rep, err := RunForkSweep(7, kills, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(kills) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(kills))
	}
	if rep.Forks != uint64(len(kills)) {
		t.Fatalf("forked %d timelines, want %d", rep.Forks, len(kills))
	}
	ctrl := rep.Cells[0]
	if ctrl.Crashes != 0 || ctrl.Restarts != 0 || ctrl.WarmRest != 0 {
		t.Fatalf("control cell saw faults: %+v", ctrl)
	}
	if ctrl.Fired == 0 {
		t.Fatal("control cell fired no events")
	}
	for i, c := range rep.Cells[1:] {
		if c.Crashes != 1 || c.Restarts != 1 || c.WarmRest != 1 {
			t.Fatalf("kill cell %d: %+v, want one crash, one warm restart", i+1, c)
		}
	}
	if rep.Cells[1] != rep.Cells[3] {
		t.Fatalf("identical delays produced different cells:\n  %+v\n  %+v", rep.Cells[1], rep.Cells[3])
	}
	if rep.Cells[1].Fired == rep.Cells[2].Fired && rep.Cells[1] == rep.Cells[2] {
		t.Fatal("different delays produced identical cells (injection time had no effect)")
	}
}

// TestForkSweepValidation pins the argument checks.
func TestForkSweepValidation(t *testing.T) {
	if _, err := RunForkSweep(1, []sim.Duration{0}, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := RunForkSweep(1, []sim.Duration{9 * sim.Millisecond}, 8*sim.Millisecond); err == nil {
		t.Fatal("kill delay outside the window accepted")
	}
}
