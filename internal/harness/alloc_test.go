package harness

import (
	"runtime"
	"testing"

	"khsim/internal/cluster"
	"khsim/internal/core"
	"khsim/internal/hafnium"
	"khsim/internal/kitten"
	"khsim/internal/mem"
	"khsim/internal/mmu"
	"khsim/internal/noise"
	"khsim/internal/sim"
)

// The allocation budgets are in heap objects per fired engine event, in
// simulated steady state. A timer interrupt allocates nothing on its way
// through the event queue, the GIC, the EL2 trap, injection, entry and
// exit paths, or a CFS tick: kernel work slices and EL2 completions run
// in pooled activities with callbacks bound once, and so do the CFS
// tick's kthread wakes, kthread activations and context switches, the
// guest's VIRQ handlers and the serve pool's arrival, admission, job,
// completion and reap events. The serve pool keeps its jobs in a reused
// table and its queues in reused rings of job IDs, and a mailbox send
// copies into the receiver's reused receive buffer, so a job allocates
// nothing either. What is left is the growth of those buffers, the
// pool's latency sample and the ledger record of a pool transition.
const (
	servingAllocBudget      = 0.05
	linuxPrimaryAllocBudget = 0.02
)

// allocsPerEvent runs n for warm, then for span more while it counts heap
// allocations against the engine events fired in the span.
func allocsPerEvent(t *testing.T, n *core.SecureNode, warm, span sim.Duration) float64 {
	t.Helper()
	n.Run(warm)
	eng := n.Machine.Engine
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fired := eng.Fired()
	n.Run(span)
	runtime.ReadMemStats(&m1)
	events := eng.Fired() - fired
	if events < 5000 {
		t.Fatalf("only %d events in the measured span; the node is not in steady state", events)
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	t.Logf("%d events, %.3f allocs/event", events, perEvent)
	return perEvent
}

// startSelfishNode boots a secure node under sched with the selfish
// detour spinning for spin in the job VM, registered as a snapshotter as
// the harness runners do. No simulated time has passed when it returns.
func startSelfishNode(t *testing.T, sched core.Scheduler, spin sim.Duration) *core.SecureNode {
	t.Helper()
	n, err := core.NewSecureNode(core.Options{Seed: 1, Manifest: vmManifest, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	s := noise.NewSelfish("selfish", spin)
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, s)
	registerProc(n.Machine, s)
	if err := n.AttachGuest("job", guest); err != nil {
		t.Fatal(err)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServingAllocBudget makes the allocation-free claim for the serving
// hot path a check that can fail: a pool at 4000 jobs/s under each
// primary is warmed up, then run for 100 ms of simulated time while the
// heap allocations are counted against the engine events fired.
func TestServingAllocBudget(t *testing.T) {
	for _, sched := range []core.Scheduler{core.SchedulerKitten, core.SchedulerLinux} {
		t.Run(sched.String(), func(t *testing.T) {
			warm, span := sim.FromSeconds(0.05), sim.FromSeconds(0.1)
			n, _ := startServingCell(t, sched, 4000, warm+span)
			if got := allocsPerEvent(t, n, warm, span); got > servingAllocBudget {
				t.Errorf("serving path allocates %.3f objects per event, budget %.2f", got, servingAllocBudget)
			}
		})
	}
}

// TestLinuxPrimaryAllocBudget bounds the timer-interrupt path the paper's
// Linux-primary baseline runs on every 250 Hz tick: the selfish detour
// spins in the job VM while the primary's ticks trap to EL2, switch the
// guest out and back in, and run the CFS tick.
func TestLinuxPrimaryAllocBudget(t *testing.T) {
	warm, span := sim.FromSeconds(0.5), sim.FromSeconds(2)
	n := startSelfishNode(t, core.SchedulerLinux, warm+span+sim.FromSeconds(1))
	if got := allocsPerEvent(t, n, warm, span); got > linuxPrimaryAllocBudget {
		t.Errorf("Linux-primary tick path allocates %.3f objects per event, budget %.2f", got, linuxPrimaryAllocBudget)
	}
}

// forkAllocBudget is in heap objects per Machine.Fork of a booted node.
// A fork rewinds every layer in place: the stage-2 tables repoint at
// their frozen roots and the metrics registry writes values back
// through recorded instruments.
const forkAllocBudget = 4

// TestForkAllocBudget bounds the allocations of a fork of the warmed
// selfish node back to its snapshot.
func TestForkAllocBudget(t *testing.T) {
	n := startSelfishNode(t, core.SchedulerKitten, sim.FromSeconds(10))
	n.Run(sim.FromSeconds(0.05))
	m := n.Machine
	snap := m.Snapshot()
	m.Fork(snap)
	allocs := testing.AllocsPerRun(200, func() { m.Fork(snap) })
	t.Logf("%.1f allocs per fork", allocs)
	if allocs > forkAllocBudget {
		t.Errorf("a fork allocates %.1f objects, budget %d", allocs, forkAllocBudget)
	}
}

// The raft paths are budgeted over a whole run, construction included,
// in heap objects per fired engine event: the built-in 3-node cluster
// failover at seed 7 and the live-migration suite at seed 1. Raft's
// election, heartbeat and retransmit timers are engine registers built
// once per replica, so arming one builds no closure; what is left is
// per-message state (fabric messages, log entries, signed records) and
// the stacks the runs construct. Each budget is the measured figure
// (4.17 and 3.17 with Go 1.24) with about 10 % headroom.
const (
	clusterAllocBudget   = 4.6
	migrationAllocBudget = 3.5
)

// raceDetector reports a race-enabled build (race_test.go). The race
// detector makes sync.Pool drop items at random, so fmt and the other
// pooled paths allocate more, and by a varying amount.
var raceDetector bool

// runAllocsPerEvent runs run, which reports the engine events it fired,
// and returns the heap objects allocated per event. A race-enabled build
// skips the test: its count is not the program's.
func runAllocsPerEvent(t *testing.T, run func() (uint64, error)) float64 {
	t.Helper()
	if raceDetector {
		t.Skip("allocation counts are not representative under the race detector")
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	events, err := run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("the run fired no events")
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	t.Logf("%d events, %.3f allocs/event", events, perEvent)
	return perEvent
}

// TestClusterFailoverAllocBudget bounds the allocations of the built-in
// cluster failover: elections, replication, a leader kill and a rejoin.
func TestClusterFailoverAllocBudget(t *testing.T) {
	m, err := cluster.ParseManifest(ClusterManifestText)
	if err != nil {
		t.Fatal(err)
	}
	got := runAllocsPerEvent(t, func() (uint64, error) {
		r, err := RunClusterManifest(m, 7)
		if err != nil {
			return 0, err
		}
		return r.EventsFired, nil
	})
	if got > clusterAllocBudget {
		t.Errorf("cluster failover allocates %.3f objects per event, budget %.1f", got, clusterAllocBudget)
	}
}

// TestMigrationAllocBudget bounds the allocations of the live-migration
// suite: three pre-copy cells and the mid-transfer kill cell, each on a
// fresh 3-node cluster.
func TestMigrationAllocBudget(t *testing.T) {
	got := runAllocsPerEvent(t, func() (uint64, error) {
		r, err := RunMigrationSuite(1)
		if err != nil {
			return 0, err
		}
		var events uint64
		for _, c := range r.Cells {
			events += c.EventsFired
		}
		return events, nil
	})
	if got > migrationAllocBudget {
		t.Errorf("migration suite allocates %.3f objects per event, budget %.1f", got, migrationAllocBudget)
	}
}

// isolationManifest is the four-VM stack of the isolation benchmark: a
// primary, a job VM that spins, and a producer and a consumer that trade
// memory, each with 64 MiB of RAM.
const isolationManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 64

[vm job]
class = secondary
vcpus = 1
memory_mb = 64

[vm producer]
class = secondary
vcpus = 1
memory_mb = 64

[vm consumer]
class = secondary
vcpus = 1
memory_mb = 64
`

// startIsolationNode builds and boots the isolation stack under the
// Kitten primary, with a chunked selfish spin in the job VM and idle
// Kitten guests in the producer and the consumer.
func startIsolationNode(t *testing.T) *core.SecureNode {
	t.Helper()
	n, err := core.NewSecureNode(core.Options{Seed: 1, Manifest: isolationManifest, Scheduler: core.SchedulerKitten})
	if err != nil {
		t.Fatal(err)
	}
	spin := noise.NewSelfish("job", 1000*sim.Second)
	spin.ChunkTime = sim.FromMicros(50)
	job := kitten.NewGuest(kitten.DefaultParams())
	job.Attach(0, spin)
	registerProc(n.Machine, spin)
	if err := n.AttachGuest("job", job); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"producer", "consumer"} {
		if err := n.AttachGuest(name, kitten.NewGuest(kitten.DefaultParams())); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	return n
}

// bytesPerRun returns the heap bytes one call of run allocates, averaged
// over n calls after a warm one. A race-enabled build skips the test.
func bytesPerRun(t *testing.T, n int, run func()) uint64 {
	t.Helper()
	if raceDetector {
		t.Skip("allocation counts are not representative under the race detector")
	}
	run()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(n)
}

// The stage-2 byte budgets. A table node is one 4 KiB page of 8-byte
// descriptors, so the four VMs' tables cost a few dozen KiB to build,
// and a fork followed by a lend and its reclaim copies only the nodes
// the two calls write through (about six 4 KiB pages). Each budget is
// the measured figure (89.5 KB and 25.5 KB with Go 1.24) with at least
// 20 % headroom.
const (
	isolationBuildBytesBudget = 120 << 10
	forkLendBytesBudget       = 40 << 10
)

// TestIsolationBuildBytesBudget bounds the heap bytes allocated to build
// and boot the isolation stack.
func TestIsolationBuildBytesBudget(t *testing.T) {
	got := bytesPerRun(t, 3, func() { startIsolationNode(t) })
	t.Logf("%d bytes to build and boot", got)
	if got > isolationBuildBytesBudget {
		t.Errorf("building and booting the isolation stack allocates %d bytes, budget %d", got, isolationBuildBytesBudget)
	}
}

// TestForkLendBytesBudget bounds the heap bytes of one isolation-epoch
// step on a warmed stack: a fork back to its snapshot, then a 4-page
// lend from the producer to the consumer and its reclaim.
func TestForkLendBytesBudget(t *testing.T) {
	n := startIsolationNode(t)
	n.Run(5 * sim.Millisecond)
	m, h := n.Machine, n.Hyp
	snap := m.Snapshot()
	prod, _ := h.VMByName("producer")
	cons, _ := h.VMByName("consumer")
	base, _ := prod.RAM()
	got := bytesPerRun(t, 64, func() {
		m.Fork(snap)
		_, id, err := h.ShareMemory(hafnium.MemLend, prod.ID(), cons.ID(), base+7*mem.PageSize, 4*mem.PageSize, mmu.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ReclaimMemory(prod.ID(), id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d bytes per fork, lend and reclaim", got)
	if got > forkLendBytesBudget {
		t.Errorf("a fork, a 4-page lend and its reclaim allocate %d bytes, budget %d", got, forkLendBytesBudget)
	}
}
