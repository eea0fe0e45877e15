package harness

import (
	"fmt"
	"slices"
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

// TestForkSweepCells runs the fork-based sweep over a fault-delay axis
// with a repeated delay, so Check's rule that identical delays land in
// identical cells (the fork isolation property) has a pair to compare,
// and shows that each of Check's cell rules can fail, among them the
// rule that kill cells with different delays differ.
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
	if err := rep.Check(); err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	for name, mutate := range map[string]func(c []ForkSweepCell){
		"control cell crashed":   func(c []ForkSweepCell) { c[0].Crashes = 1 },
		"control cell idle":      func(c []ForkSweepCell) { c[0].Fired = 0 },
		"kill cell cold restart": func(c []ForkSweepCell) { c[2].WarmRest = 0 },
		"repeated delay drifted": func(c []ForkSweepCell) { c[3].Fired++ },
		"delay does not show": func(c []ForkSweepCell) {
			k := c[2].KillAfter
			c[2] = c[1]
			c[2].KillAfter = k
		},
	} {
		bad := *rep
		bad.Cells = slices.Clone(rep.Cells)
		mutate(bad.Cells)
		if bad.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
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
