package harness

import (
	"fmt"
	"strings"

	"khsim/internal/core"
	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/sim"
)

// This file is the whole-stack proof of the snapshot/fork contract
// (DESIGN.md §11): RunSnapshotCheck pins that a restored or forked
// timeline replays bit-identically to the uninterrupted one, and
// RunForkSweep is the fork-based sweep mode — boot the stack once, then
// explore a parameter axis (fault-injection delay) by forking the warm
// snapshot per table cell instead of cold-booting per cell.

// snapManifest is the partition plan for the snapshot experiments: the
// standard benchmark node plus a watchdog restart policy on the job VM
// so a fault-injected fork exercises the warm snapshot-restore path.
const snapManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 512
working_set_pages = 256
restart_policy = restart
max_restarts = 8
restart_backoff_us = 500
restart_from_snapshot = true
`

// snapStack is one booted snapshot-experiment stack.
type snapStack struct {
	n *core.SecureNode
	s *noise.Selfish
}

// buildSnapshotStack assembles and boots the standard snapshot stack: a
// Kitten primary scheduling a Kitten job VM spinning the selfish-detour
// probe for far longer than any experiment window, with the probe
// registered on the node so its result buffer rides node snapshots.
func buildSnapshotStack(seed uint64, spin sim.Duration) (*snapStack, error) {
	n, err := core.NewSecureNode(core.Options{
		Seed:      seed,
		Manifest:  snapManifest,
		Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		return nil, err
	}
	s := noise.NewSelfish("snapshot", spin)
	// Chunked spin: each 50 µs chunk is one schedule/fire round trip, so
	// every timeline carries steady engine traffic for the replay to get
	// wrong.
	s.ChunkTime = sim.FromMicros(50)
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, s)
	if err := n.AttachGuest("job", guest); err != nil {
		return nil, err
	}
	n.Machine.RegisterSnapshotter("proc."+s.Name(), s)
	if err := n.Boot(); err != nil {
		return nil, err
	}
	return &snapStack{n: n, s: s}, nil
}

// artifact renders the stack's observable state as a deterministic
// string: engine clock and event count, every hypervisor counter, the
// attestation ledger, the selfish-detour tally, the full metrics
// snapshot and the tail of the time-ordered trace. Two timelines that
// executed identically produce byte-identical artifacts; any divergence
// anywhere in the stack shows up here.
func (st *snapStack) artifact() string {
	var b strings.Builder
	eng := st.n.Machine.Engine
	fmt.Fprintf(&b, "now=%.9fs fired=%d\n", eng.Now().Seconds(), eng.Fired())
	fmt.Fprintf(&b, "hyp %+v\n", st.n.Hyp.Stats())
	head := st.n.AttestLog.Head()
	fmt.Fprintf(&b, "ledger len=%d head=%x\n", st.n.AttestLog.Len(), head[:8])
	fmt.Fprintf(&b, "detours=%d\n", st.s.Result.Count())
	fmt.Fprintf(&b, "--- metrics ---\n")
	st.n.Machine.SnapshotMetrics().WriteText(&b)
	recs := st.n.Machine.Trace.Sorted()
	fmt.Fprintf(&b, "--- trace len=%d tail ---\n", len(recs))
	if len(recs) > 50 {
		recs = recs[len(recs)-50:]
	}
	for _, r := range recs {
		fmt.Fprintf(&b, "%.9f\t%d\t%s\t%g\t%s\n", r.At.Seconds(), r.Core, r.Kind, r.Value, r.Note)
	}
	return b.String()
}

// SnapshotReport is the outcome of the snapshot determinism experiment:
// one stack run uninterrupted past a snapshot point, then rewound to it
// three times — twice verbatim, once with a fault injected — with the
// full-stack artifact captured at the same simulated instant each time.
type SnapshotReport struct {
	Seed   uint64
	SnapAt sim.Time // when the snapshot was taken
	EndAt  sim.Time // when each timeline's artifact was captured
	Forks  uint64   // timelines run from the snapshot

	// Baseline is the uninterrupted timeline's artifact; Restored and
	// Forked are the first and second rewound timelines'. Diverged is the
	// fault-injected timeline's, and WarmRestores counts its watchdog
	// restarts served from the warm stage-2 snapshot.
	Baseline     string
	Restored     string
	Forked       string
	Diverged     string
	WarmRestores uint64
}

// Check enforces the fork-determinism contract: restored and forked
// timelines byte-identical to the baseline, and the fault-injected fork
// both diverging and exercising the warm snapshot-restore path.
func (r *SnapshotReport) Check() error {
	if r.Restored != r.Baseline {
		return fmt.Errorf("snapshot: restored timeline diverged from the uninterrupted run\n%s",
			diffHint(r.Baseline, r.Restored))
	}
	if r.Forked != r.Baseline {
		return fmt.Errorf("snapshot: second fork diverged from the first\n%s",
			diffHint(r.Baseline, r.Forked))
	}
	if r.Diverged == r.Baseline {
		return fmt.Errorf("snapshot: fault-injected fork replayed identically (injection had no effect)")
	}
	if r.WarmRestores == 0 {
		return fmt.Errorf("snapshot: fault-injected fork never restarted from the warm snapshot")
	}
	return nil
}

// diffHint locates the first line where two artifacts disagree.
func diffHint(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first difference at line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// Artifact renders the report for byte-comparison across processes (the
// obscheck fork gate runs the experiment twice and compares).
func (r *SnapshotReport) Artifact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot-check seed=%d snap=%.6fs end=%.6fs forks=%d\n",
		r.Seed, r.SnapAt.Seconds(), r.EndAt.Seconds(), r.Forks)
	fmt.Fprintf(&b, "=== baseline ===\n%s", r.Baseline)
	fmt.Fprintf(&b, "=== diverged (warm restores=%d) ===\n%s", r.WarmRestores, r.Diverged)
	return b.String()
}

// String renders the human-facing verdict.
func (r *SnapshotReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot check: seed %d, snapshot at %v, compared at %v, %d timelines\n",
		r.Seed, r.SnapAt, r.EndAt, r.Forks)
	id := func(ok bool) string {
		if ok {
			return "bit-identical"
		}
		return "DIVERGED"
	}
	fmt.Fprintf(&b, "restore replay: %s (%d artifact bytes)\n", id(r.Restored == r.Baseline), len(r.Baseline))
	fmt.Fprintf(&b, "fork replay:    %s\n", id(r.Forked == r.Baseline))
	fmt.Fprintf(&b, "faulted fork:   diverged=%v warm-restores=%d\n", r.Diverged != r.Baseline, r.WarmRestores)
	if err := r.Check(); err != nil {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "ok: forked timelines deterministic, faulted fork diverges\n")
	}
	return b.String()
}

// RunSnapshotCheck boots the snapshot stack, runs it to the snapshot
// point, then drives four timelines from that instant: uninterrupted to
// the comparison point, two verbatim forks, and one fork with a VM fault
// injected mid-window (whose watchdog restart comes from the warm
// stage-2 snapshot). Same seed, same snapshot → the verbatim timelines
// must be bit-identical and the faulted one must not be.
func RunSnapshotCheck(seed uint64) (*SnapshotReport, error) {
	const (
		warmup = 5 * sim.Millisecond  // to the snapshot point
		window = 10 * sim.Millisecond // from snapshot to comparison
	)
	st, err := buildSnapshotStack(seed, sim.FromSeconds(1))
	if err != nil {
		return nil, err
	}
	n := st.n
	n.Run(warmup)
	rep := &SnapshotReport{Seed: seed, SnapAt: n.Machine.Now()}
	snap := n.Machine.Snapshot()

	n.Run(window)
	rep.EndAt = n.Machine.Now()
	rep.Baseline = st.artifact()

	n.Machine.Fork(snap)
	n.Run(window)
	rep.Restored = st.artifact()

	n.Machine.Fork(snap)
	n.Run(window)
	rep.Forked = st.artifact()

	n.Machine.Fork(snap)
	vm, ok := n.Hyp.VMByName("job")
	if !ok {
		return nil, fmt.Errorf("harness: no job VM in snapshot stack")
	}
	n.Machine.Engine.AfterNamed(window/4, "snapshot.diverge", func() {
		if err := n.Hyp.InjectVMFault(vm.ID(), "injected: fork divergence probe"); err != nil {
			panic(fmt.Sprintf("harness: divergence injection: %v", err))
		}
	})
	n.Run(window)
	rep.Diverged = st.artifact()
	rep.WarmRestores = n.Hyp.Stats().SnapshotRestores
	rep.Forks = n.Machine.Forks()
	return rep, nil
}

// ForkSweepCell is one cell of a fork-based sweep: the fault-injection
// delay it explored and what the timeline did in response.
type ForkSweepCell struct {
	KillAfter sim.Duration // crash injected this long after the fork; < 0 = no fault
	Crashes   uint64       // aborts contained during the window
	Restarts  uint64       // watchdog restarts
	WarmRest  uint64       // restarts served from the warm stage-2 snapshot
	Detours   int          // selfish-detour count at window end
	Fired     uint64       // events fired in the window
}

// ForkSweepReport is the outcome of a fork-based parameter sweep: one
// boot, one warm snapshot, one forked timeline per cell.
type ForkSweepReport struct {
	Seed   uint64
	SnapAt sim.Time     // the shared fork point
	Window sim.Duration // how long each timeline ran
	Cells  []ForkSweepCell
	Forks  uint64 // timelines forked (== len(Cells))
}

// Check enforces the sweep's cell rules: one fork per cell; a control
// cell sees no fault yet fires events; every kill cell sees exactly one
// crash, served by one warm restart; and cells with the same delay come
// out identical, so no fork leaks state into the next.
func (r *ForkSweepReport) Check() error {
	if len(r.Cells) == 0 || r.Forks != uint64(len(r.Cells)) {
		return fmt.Errorf("fork sweep: %d timelines forked for %d cells", r.Forks, len(r.Cells))
	}
	first := map[sim.Duration]ForkSweepCell{}
	for _, c := range r.Cells {
		switch {
		case c.KillAfter < 0 && (c.Crashes != 0 || c.Restarts != 0 || c.WarmRest != 0):
			return fmt.Errorf("fork sweep: control cell saw faults: %+v", c)
		case c.KillAfter < 0 && c.Fired == 0:
			return fmt.Errorf("fork sweep: control cell fired no events")
		case c.KillAfter >= 0 && (c.Crashes != 1 || c.Restarts != 1 || c.WarmRest != 1):
			return fmt.Errorf("fork sweep: kill cell %v: %+v, want one crash and one warm restart", c.KillAfter, c)
		}
		if f, ok := first[c.KillAfter]; ok && f != c {
			return fmt.Errorf("fork sweep: cells with the same delay differ:\n  %+v\n  %+v", f, c)
		}
		first[c.KillAfter] = c
	}
	return nil
}

// Artifact renders the sweep table for byte comparison across processes.
func (r *ForkSweepReport) Artifact() string { return r.String() }

// String renders the sweep table.
func (r *ForkSweepReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fork sweep: seed %d, %d cells forked at %v, window %v\n",
		r.Seed, len(r.Cells), r.SnapAt, r.Window)
	fmt.Fprintf(&b, "%12s %8s %9s %10s %8s %8s\n",
		"kill-after", "crashes", "restarts", "warm-rest", "detours", "events")
	for _, c := range r.Cells {
		kill := "none"
		if c.KillAfter >= 0 {
			kill = fmt.Sprintf("%v", c.KillAfter)
		}
		fmt.Fprintf(&b, "%12s %8d %9d %10d %8d %8d\n",
			kill, c.Crashes, c.Restarts, c.WarmRest, c.Detours, c.Fired)
	}
	return b.String()
}

// RunForkSweep boots the snapshot stack once, warms it to the snapshot
// point, and then runs one forked timeline per entry of killAfters: each
// fork rewinds the whole node (copy-on-write under the stage-2 tables)
// and injects a VM crash that entry's delay after the fork point (a
// negative delay injects nothing — the control cell). This is the sweep
// mode the snapshot contract buys: N parameter cells for one boot.
func RunForkSweep(seed uint64, killAfters []sim.Duration, window sim.Duration) (*ForkSweepReport, error) {
	if window <= 0 {
		return nil, fmt.Errorf("harness: fork sweep needs a positive window")
	}
	st, err := buildSnapshotStack(seed, sim.FromSeconds(1)+window*2)
	if err != nil {
		return nil, err
	}
	n := st.n
	n.Run(5 * sim.Millisecond)
	rep := &ForkSweepReport{Seed: seed, SnapAt: n.Machine.Now(), Window: window}
	snap := n.Machine.Snapshot()
	vm, ok := n.Hyp.VMByName("job")
	if !ok {
		return nil, fmt.Errorf("harness: no job VM in snapshot stack")
	}
	base := n.Hyp.Stats()
	fired0 := n.Machine.Engine.Fired()
	for _, kill := range killAfters {
		n.Machine.Fork(snap)
		if kill >= 0 {
			if kill >= window {
				return nil, fmt.Errorf("harness: kill delay %v outside the %v window", kill, window)
			}
			k := kill
			n.Machine.Engine.AfterNamed(k, "sweep.kill", func() {
				if err := n.Hyp.InjectVMFault(vm.ID(), "injected: sweep kill"); err != nil {
					panic(fmt.Sprintf("harness: sweep injection: %v", err))
				}
			})
		}
		n.Run(window)
		hs := n.Hyp.Stats()
		rep.Cells = append(rep.Cells, ForkSweepCell{
			KillAfter: kill,
			Crashes:   hs.Aborts - base.Aborts,
			Restarts:  hs.Restarts - base.Restarts,
			WarmRest:  hs.SnapshotRestores - base.SnapshotRestores,
			Detours:   st.s.Result.Count(),
			Fired:     n.Machine.Engine.Fired() - fired0,
		})
	}
	rep.Forks = n.Machine.Forks()
	return rep, nil
}
