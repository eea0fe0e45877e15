// Command benchjson measures discrete-event engine throughput on seven
// representative simulator scenarios and records the results as
// machine-readable JSON (BENCH_sim.json at the repo root; `make bench`).
//
// Each scenario is built, warmed up, and then measured over a fixed window
// of simulated time on a single goroutine:
//
//	selfish          native Kitten, chunked selfish-detour spin (50 µs
//	                 chunks): the engine-dominated schedule/fire hot path.
//	stream           STREAM triad in a Kitten secondary VM under a Kitten
//	                 primary: the world-switch + tick + phase mix.
//	fault-storm-4vm  four VMs (primary + three crashing/restarting
//	                 victims) under the deterministic fault injector.
//	cluster-failover the 3-node replicated-attestation failover
//	                 experiment, measured end to end (no warmup; the
//	                 whole run including construction is the window).
//	snapshot-fork    the whole-node snapshot/fork hot path: "events" are
//	                 Node.Fork calls (full copy-on-write restores), so
//	                 ns/event reads as ns/fork. The file also carries a
//	                 "snapshot-fork" comparison block pinning fork cost
//	                 against cold stack construction; -check requires
//	                 the cold boot to stay ≥ 10× a fork.
//	migration        the live VM migration sweep (3-node cluster, pre-copy
//	                 + stop-and-copy over the fabric) measured end to end.
//	                 The file carries a "migration" block with per-cell
//	                 downtime vs budget (downtime is simulated time, so
//	                 the budget gate is machine-independent); -check
//	                 requires every cell to stay under budget.
//	serving          the multi-tenant ephemeral-VM serving sweep (both
//	                 primary kernels across every arrival rate), measured
//	                 end to end. The run itself enforces byte-identical
//	                 same-seed artifacts; the file carries a "serving"
//	                 block with the p50/p99/p999 latency-vs-rate table
//	                 and the warm-vs-cold prepare means. -check requires
//	                 the warm fork to beat the cold boot (the
//	                 environment-reuse win; simulated time, so the gate
//	                 is machine-independent).
//
// Reported per scenario: ns/event (wall nanoseconds per simulation event,
// best of -reps), events/sec, allocs/event (Go heap allocations per event
// in the measured steady-state window), and the deterministic event count.
//
// Modes:
//
//	-out FILE     run and write FILE, preserving any "baseline" block the
//	              existing FILE carries (the pre-optimization trajectory).
//	-record-baseline LABEL
//	              additionally store this run as the new baseline block.
//	-check FILE   run and compare against FILE's committed scenario
//	              numbers; exit non-zero on a regression. Used by the CI
//	              bench job. Three gates: event counts must match exactly
//	              (machine-independent determinism), allocs/event must not
//	              grow materially, and ns/event must not regress beyond
//	              -tolerance (default 0.15 = 15%) after normalizing the
//	              committed numbers by the ratio of a raw-CPU calibration
//	              loop, so the gate survives CI runners of a different
//	              speed class than the machine that recorded the file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"khsim/internal/cluster"
	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/harness"
	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/serve"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// ScenarioResult is one scenario's measured numbers.
type ScenarioResult struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	Events         uint64  `json:"events"`
	SimSeconds     float64 `json:"sim_seconds"`
}

// ForkResult compares the warm snapshot-fork path against cold stack
// construction: ns and allocs per Node.Fork (a full whole-node restore,
// copy-on-write under the stage-2 tables) versus ns per cold build+boot
// of the same stack. The fork gate requires the speedup to stay ≥ 10×.
type ForkResult struct {
	NsPerFork      float64 `json:"ns_per_fork"`
	AllocsPerFork  float64 `json:"allocs_per_fork"`
	NsPerColdBoot  float64 `json:"ns_per_cold_boot"`
	ColdOverFork   float64 `json:"cold_boot_over_fork"`
	Forks          uint64  `json:"forks"`
	ColdBootsTimed uint64  `json:"cold_boots_timed"`
}

// MigrationCellResult is one live-migration cell's gate numbers: the
// measured stop-and-copy downtime against its budget. Downtime is pure
// simulated time — machine-independent — so the budget is a fixed
// function of the working set (2× the ideal wire time for the dirty set
// at 1 GB/s, plus 1 ms of handshake slack), and the under-budget bit is
// a hard determinism-backed gate, not a wall-clock heuristic.
type MigrationCellResult struct {
	WorkingSetPages int    `json:"working_set_pages"`
	Kill            bool   `json:"kill"`
	DowntimeNs      int64  `json:"downtime_ns"`
	BudgetNs        int64  `json:"budget_ns"`
	BytesShipped    uint64 `json:"bytes_shipped"`
	Rounds          int    `json:"rounds"`
	Outcome         string `json:"outcome"`
	UnderBudget     bool   `json:"downtime_under_budget"`
}

// MigrationResult is the BENCH file's migration block: the downtime-vs-
// working-set sweep plus the mid-transfer-kill cell.
type MigrationResult struct {
	Cells []MigrationCellResult `json:"cells"`
}

// ServingCellResult is one (primary kernel, arrival rate) cell of the
// ephemeral-VM serving sweep: admission-to-completion latency
// percentiles (pure simulated time, machine-independent) and the
// prepare-path split the reuse gate compares.
type ServingCellResult struct {
	Primary        string  `json:"primary"`
	Rate           float64 `json:"rate_jobs_per_sec"`
	Completed      int     `json:"completed"`
	P50US          float64 `json:"p50_us"`
	P99US          float64 `json:"p99_us"`
	P999US         float64 `json:"p999_us"`
	WarmPrepares   int     `json:"warm_prepares"`
	ColdPrepares   int     `json:"cold_prepares"`
	MeanWarmPrepUS float64 `json:"mean_warm_prep_us"`
	MeanColdPrepUS float64 `json:"mean_cold_prep_us"`
}

// ServingResult is the BENCH file's serving block: the latency-vs-rate
// table for both primary kernels plus the sweep-wide prepare means the
// reuse-win gate (-check: warm fork must beat cold boot) compares.
type ServingResult struct {
	Cells          []ServingCellResult `json:"cells"`
	MeanWarmPrepUS float64             `json:"mean_warm_prep_us"`
	MeanColdPrepUS float64             `json:"mean_cold_prep_us"`
	WarmOverCold   float64             `json:"cold_prep_over_warm"`
}

// Baseline is a pinned historical run kept for trajectory comparison.
type Baseline struct {
	Label     string                    `json:"label"`
	Scenarios map[string]ScenarioResult `json:"scenarios"`
}

// File is the BENCH_sim.json schema.
type File struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Note   string `json:"note"`
	// CalibNsPerOp is the recording machine's raw-CPU calibration number
	// (see calibrate); -check scales committed ns/event by the ratio of
	// the checking machine's calibration to this.
	CalibNsPerOp float64                   `json:"calib_ns_per_op,omitempty"`
	Baseline     *Baseline                 `json:"baseline,omitempty"`
	Fork         *ForkResult               `json:"snapshot-fork,omitempty"`
	Migration    *MigrationResult          `json:"migration,omitempty"`
	Serving      *ServingResult            `json:"serving,omitempty"`
	Scenarios    map[string]ScenarioResult `json:"scenarios"`
}

// calibOps is the iteration count of the calibration loop (~100 ms).
const calibOps = 1 << 27

var calibSink uint64

// calibrate measures raw single-core integer throughput with a xorshift
// loop that involves no simulator code at all. Because it is independent
// of the engine, a genuine engine regression cannot hide behind it; it
// only absorbs whole-machine speed differences between the recording and
// checking hosts.
func calibrate() float64 {
	best := math.MaxFloat64
	for r := 0; r < 3; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		t0 := time.Now()
		for i := 0; i < calibOps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		if ns := float64(time.Since(t0).Nanoseconds()) / calibOps; ns < best {
			best = ns
		}
	}
	return best
}

// measure is one measured window.
type measure struct {
	events uint64
	allocs uint64
	wall   time.Duration
	simDur sim.Duration
}

func (m measure) result() ScenarioResult {
	r := ScenarioResult{Events: m.events, SimSeconds: m.simDur.Seconds()}
	if m.events > 0 {
		r.NsPerEvent = float64(m.wall.Nanoseconds()) / float64(m.events)
		r.AllocsPerEvent = float64(m.allocs) / float64(m.events)
	}
	if s := m.wall.Seconds(); s > 0 {
		r.EventsPerSec = float64(m.events) / s
	}
	return r
}

// measureWindow advances the engine-driving run function by measureDur of
// simulated time, recording wall time, fired events and heap allocations.
func measureWindow(eng *sim.Engine, run func(d sim.Duration), measureDur sim.Duration) measure {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := eng.Fired()
	t0 := time.Now()
	run(measureDur)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return measure{
		events: eng.Fired() - f0,
		allocs: m1.Mallocs - m0.Mallocs,
		wall:   wall,
		simDur: measureDur,
	}
}

// selfishScenario: native Kitten with a chunked selfish-detour spin. Each
// 50 µs chunk is one schedule+fire round trip, so the engine hot path
// dominates; the 1 s warmup takes the event pool and result buffers to
// steady state before the window opens.
func selfishScenario() (measure, error) {
	n, err := core.NewNativeNode(7, kitten.Params{})
	if err != nil {
		return measure{}, err
	}
	s := noise.NewSelfish("bench", sim.FromSeconds(30))
	s.ChunkTime = sim.FromMicros(50)
	if _, err := n.Kernel.Spawn(s.Name(), 0, s); err != nil {
		return measure{}, err
	}
	n.Run(sim.FromSeconds(1)) // warmup
	return measureWindow(n.Machine.Engine, n.Run, sim.FromSeconds(8)), nil
}

const streamManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 512
working_set_pages = 256
`

// streamScenario: the STREAM triad model inside a Kitten secondary VM
// under a Kitten primary — ticks, world switches and sub-millisecond
// workload phases. PhaseOps is shrunk to 0.5 ms phases so the measured
// window holds thousands of phase events, and TotalOps is oversized so
// the workload cannot finish inside the window.
func streamScenario() (measure, error) {
	spec := workload.Stream()
	spec.PhaseOps = spec.NativeRate * 0.0005
	spec.TotalOps = spec.NativeRate * 60
	run := workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(11)})
	n, err := core.NewSecureNode(core.Options{
		Seed: 7, Manifest: streamManifest, Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		return measure{}, err
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, run)
	if err := n.AttachGuest("job", guest); err != nil {
		return measure{}, err
	}
	if err := n.Boot(); err != nil {
		return measure{}, err
	}
	n.Run(sim.FromSeconds(1)) // warmup
	return measureWindow(n.Machine.Engine, n.Run, sim.FromSeconds(8)), nil
}

const stormManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm victim1]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 64
restart_backoff_us = 200

[vm victim2]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 64
restart_backoff_us = 200

[vm victim3]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 64
restart_backoff_us = 200
`

// stormScenario: a 4-VM node (primary + three spinning victims) with the
// deterministic fault injector crashing, storming and corrupting the
// victims — the crash-containment machinery as an engine workload.
func stormScenario() (measure, error) {
	n, err := core.NewSecureNode(core.Options{
		Seed: 7, Manifest: stormManifest, Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		return measure{}, err
	}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("victim%d", i)
		guest := kitten.NewGuest(kitten.DefaultParams())
		guest.Attach(0, noise.NewSelfish(name, sim.FromSeconds(60)))
		if err := n.AttachGuest(name, guest, i); err != nil {
			return measure{}, err
		}
	}
	if err := n.Boot(); err != nil {
		return measure{}, err
	}
	horizon := sim.FromSeconds(10)
	var rules []faults.Rule
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("victim%d", i)
		rules = append(rules,
			faults.Rule{Kind: faults.VCPUCrash, Target: name, Mean: sim.FromSeconds(0.5)},
			faults.Rule{Kind: faults.SpuriousIRQ, Core: i, Mean: sim.FromSeconds(0.05)},
			faults.Rule{Kind: faults.IRQStorm, Core: i, Mean: sim.FromSeconds(0.2), Burst: 4},
			faults.Rule{Kind: faults.TLBCorrupt, Core: i, Mean: sim.FromSeconds(0.25)},
			faults.Rule{Kind: faults.RogueHypercall, Target: name, Mean: sim.FromSeconds(0.25)},
		)
	}
	in, err := faults.New(n.Machine, n.Hyp, 7, rules)
	if err != nil {
		return measure{}, err
	}
	if err := in.Start(n.Machine.Now().Add(horizon)); err != nil {
		return measure{}, err
	}
	n.Run(sim.FromSeconds(1)) // warmup
	return measureWindow(n.Machine.Engine, n.Run, sim.FromSeconds(6)), nil
}

// clusterScenario: the 3-node replicated-attestation failover experiment
// (leader kill, follower partition, heal) measured end to end — three
// per-node engines multiplexed by global event order, fabric delivery,
// Raft-lite elections and the manifest fault campaign. The window covers
// the whole run including construction, so the event count doubles as the
// cross-node determinism gate: any drift in the merged schedule changes
// it.
func clusterScenario() (measure, error) {
	m, err := cluster.ParseManifest(harness.ClusterManifestText)
	if err != nil {
		return measure{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := harness.RunClusterManifest(m, 7)
	if err != nil {
		return measure{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err := r.Check(); err != nil {
		return measure{}, fmt.Errorf("failover properties: %w", err)
	}
	return measure{
		events: r.EventsFired,
		allocs: m1.Mallocs - m0.Mallocs,
		wall:   wall,
		simDur: m.Run,
	}, nil
}

// forkManifest is the snapshot-fork scenario's partition plan: the
// benchmark node with the watchdog's warm-restore opt-in, matching the
// harness snapshot experiments.
const forkManifest = `
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

// buildForkStack cold-builds and boots the snapshot stack, reporting how
// long construction took (the fork comparison's baseline).
func buildForkStack() (*core.SecureNode, time.Duration, error) {
	t0 := time.Now()
	n, err := core.NewSecureNode(core.Options{
		Seed: 7, Manifest: forkManifest, Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		return nil, 0, err
	}
	s := noise.NewSelfish("fork", sim.FromSeconds(30))
	s.ChunkTime = sim.FromMicros(50)
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, s)
	n.Machine.RegisterSnapshotter("proc."+s.Name(), s)
	if err := n.AttachGuest("job", guest); err != nil {
		return nil, 0, err
	}
	if err := n.Boot(); err != nil {
		return nil, 0, err
	}
	return n, time.Since(t0), nil
}

// forkBlock accumulates the best fork and cold-boot numbers across reps
// for the File's snapshot-fork comparison block.
var forkBlock *ForkResult

// forkScenario: the snapshot/fork hot path. Cold-boots the stack a few
// times (the baseline), warms the survivor to a snapshot point, then
// repeatedly forks the timeline and runs a short divergence window —
// timing and alloc-counting only the Fork calls, which are full
// whole-node restores with copy-on-write stage-2 sharing. Reported as a
// pseudo-scenario: "events" are forks, ns/event is ns/fork.
func forkScenario() (measure, error) {
	const (
		forks    = 256
		coldReps = 4
	)
	coldBest := time.Duration(math.MaxInt64)
	var n *core.SecureNode
	for i := 0; i < coldReps; i++ {
		nn, w, err := buildForkStack()
		if err != nil {
			return measure{}, err
		}
		if w < coldBest {
			coldBest = w
		}
		n = nn
	}
	n.Run(sim.FromSeconds(0.005)) // warm to the fork point
	snap := n.Machine.Snapshot()
	runtime.GC()
	var m0, m1 runtime.MemStats
	var wall time.Duration
	var mallocs uint64
	for i := 0; i < forks; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n.Machine.Fork(snap)
		wall += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		// Dirty the timeline so the next fork rewinds real work.
		n.Run(sim.FromMicros(100))
	}
	fb := &ForkResult{
		NsPerFork:      float64(wall.Nanoseconds()) / forks,
		AllocsPerFork:  float64(mallocs) / forks,
		NsPerColdBoot:  float64(coldBest.Nanoseconds()),
		Forks:          forks,
		ColdBootsTimed: coldReps,
	}
	if forkBlock != nil {
		fb.NsPerFork = math.Min(fb.NsPerFork, forkBlock.NsPerFork)
		fb.AllocsPerFork = math.Min(fb.AllocsPerFork, forkBlock.AllocsPerFork)
		fb.NsPerColdBoot = math.Min(fb.NsPerColdBoot, forkBlock.NsPerColdBoot)
	}
	fb.ColdOverFork = fb.NsPerColdBoot / fb.NsPerFork
	forkBlock = fb
	return measure{events: forks, allocs: mallocs, wall: wall}, nil
}

// migrationBlock carries the latest migration sweep's gate numbers for
// the File's migration block (like forkBlock for snapshot-fork).
var migrationBlock *MigrationResult

// migrationBudgetNs is the downtime budget for one cell. Clean cells
// get twice the ideal wire time of the working set at the fabric's
// 1 GB/s (a 4 KiB page is 4096 ns on the wire) plus 1 ms of handshake
// slack; the kill cell's "downtime" is the pause-to-rollback window,
// bounded by the fault schedule rather than the working set, so it gets
// a flat 80 ms — well under the 120 ms cell but far over any clean run.
func migrationBudgetNs(wsPages int, kill bool) int64 {
	if kill {
		return 80_000_000
	}
	return 2*int64(wsPages)*4096 + 1_000_000
}

// migrationScenario: the live-migration sweep (three working-set cells
// plus the mid-transfer kill cell) measured end to end like the cluster
// scenario — construction included, event count as the cross-node
// determinism gate. It also fills the migration gate block: downtime
// must stay under the per-cell budget, which -check enforces.
func migrationScenario() (measure, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	rep, err := harness.RunMigrationSuite(7)
	if err != nil {
		return measure{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err := rep.Check(); err != nil {
		return measure{}, fmt.Errorf("migration properties: %w", err)
	}
	mb := &MigrationResult{}
	var events uint64
	var simDur sim.Duration
	for i := range rep.Cells {
		c := &rep.Cells[i]
		events += c.EventsFired
		simDur += rep.Run
		cr := MigrationCellResult{
			WorkingSetPages: c.WorkingSetPages,
			Kill:            c.Kill,
			DowntimeNs:      int64(c.Downtime.Nanos()),
			BudgetNs:        migrationBudgetNs(c.WorkingSetPages, c.Kill),
			BytesShipped:    c.Bytes,
			Rounds:          len(c.Rounds),
			Outcome:         c.Outcome.String(),
		}
		cr.UnderBudget = cr.DowntimeNs <= cr.BudgetNs
		mb.Cells = append(mb.Cells, cr)
	}
	migrationBlock = mb
	return measure{events: events, allocs: m1.Mallocs - m0.Mallocs, wall: wall, simDur: simDur}, nil
}

// servingBlock carries the latest serving sweep's latency-vs-rate table
// and the sweep-wide prepare means the -check reuse-win gate compares.
var servingBlock *ServingResult

// servingScenario: the ephemeral-VM serving sweep (both primary kernels
// across every arrival rate, a fresh whole-stack boot per cell) measured
// end to end. The sweep runs twice with the same seed in this process
// and the two artifacts must match byte for byte — the obscheck identity
// enforced in the run itself — before the block records the latency table and the warm-vs-cold
// prepare means. Latencies and prepare costs are pure simulated time,
// so the reuse-win gate is machine-independent.
func servingScenario() (measure, error) {
	cfg, err := serve.ParseManifest(harness.ServingManifestText)
	if err != nil {
		return measure{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	rep, err := harness.RunServingSweep(7)
	if err != nil {
		return measure{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rerun, err := harness.RunServingSweep(7)
	if err != nil {
		return measure{}, err
	}
	if rep.Artifact() != rerun.Artifact() {
		return measure{}, fmt.Errorf("serving: DETERMINISM: same-seed sweep artifacts differ")
	}
	if err := rep.Check(); err != nil {
		return measure{}, fmt.Errorf("serving properties: %w", err)
	}
	sb := &ServingResult{}
	var events uint64
	var simDur sim.Duration
	var warmN, coldN int
	var warmSum, coldSum float64
	for _, c := range rep.Cells {
		events += c.Report.EventsFired
		simDur += cfg.Run + cfg.Drain
		s := c.Report.Stats
		warmN += s.WarmPrepares
		coldN += s.ColdPrepares
		warmSum += c.Report.MeanWarmPrepUS * float64(s.WarmPrepares)
		coldSum += c.Report.MeanColdPrepUS * float64(s.ColdPrepares)
		sb.Cells = append(sb.Cells, ServingCellResult{
			Primary:        c.Primary,
			Rate:           c.Rate,
			Completed:      s.Completed,
			P50US:          c.Report.P50,
			P99US:          c.Report.P99,
			P999US:         c.Report.P999,
			WarmPrepares:   s.WarmPrepares,
			ColdPrepares:   s.ColdPrepares,
			MeanWarmPrepUS: c.Report.MeanWarmPrepUS,
			MeanColdPrepUS: c.Report.MeanColdPrepUS,
		})
	}
	if warmN > 0 {
		sb.MeanWarmPrepUS = warmSum / float64(warmN)
	}
	if coldN > 0 {
		sb.MeanColdPrepUS = coldSum / float64(coldN)
	}
	if sb.MeanWarmPrepUS > 0 {
		sb.WarmOverCold = sb.MeanColdPrepUS / sb.MeanWarmPrepUS
	}
	servingBlock = sb
	return measure{events: events, allocs: m1.Mallocs - m0.Mallocs, wall: wall, simDur: simDur}, nil
}

var scenarios = []struct {
	name string
	run  func() (measure, error)
}{
	{"selfish", selfishScenario},
	{"stream", streamScenario},
	{"fault-storm-4vm", stormScenario},
	{"cluster-failover", clusterScenario},
	{"snapshot-fork", forkScenario},
	{"migration", migrationScenario},
	{"serving", servingScenario},
}

// runAll measures every scenario reps times. Recording (median=true)
// keeps the median ns/event rep — a representative number with headroom
// against lucky minima — while checking keeps the best rep, so one noisy
// rep on a busy machine cannot fail the gate.
func runAll(reps int, median bool) (map[string]ScenarioResult, error) {
	out := make(map[string]ScenarioResult)
	for _, sc := range scenarios {
		runs := make([]ScenarioResult, 0, reps)
		for r := 0; r < reps; r++ {
			m, err := sc.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
			runs = append(runs, m.result())
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerEvent < runs[j].NsPerEvent })
		pick := runs[0]
		if median {
			pick = runs[len(runs)/2]
		}
		fmt.Printf("%-16s %9.1f ns/event %12.0f events/s %8.4f allocs/event (%d events, %.1fs sim)\n",
			sc.name, pick.NsPerEvent, pick.EventsPerSec, pick.AllocsPerEvent, pick.Events, pick.SimSeconds)
		out[sc.name] = pick
	}
	return out, nil
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	out := flag.String("out", "", "write results to this JSON file (preserving its baseline block)")
	check := flag.String("check", "", "compare ns/event against this committed JSON file")
	recordBaseline := flag.String("record-baseline", "", "also pin this run as the baseline block, with the given label")
	reps := flag.Int("reps", 3, "repetitions per scenario (best ns/event wins)")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional ns/event regression for -check")
	flag.Parse()

	results, err := runAll(*reps, *check == "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *check != "" {
		ref, err := readFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		// Normalize committed wall-clock numbers to this machine's speed.
		// The scale is clamped: a wildly different ratio means the
		// calibration is not comparable and the raw numbers are the best
		// reference available.
		// Only loosen, never tighten: calibration jitter on the recording
		// machine must not manufacture failures there.
		scale := 1.0
		if ref.CalibNsPerOp > 0 {
			scale = calibrate() / ref.CalibNsPerOp
			if scale < 1 {
				scale = 1
			}
			if scale > 4 {
				scale = 4
			}
		}
		failed := false
		for name, want := range ref.Scenarios {
			got, ok := results[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: scenario %q in %s no longer exists\n", name, *check)
				failed = true
				continue
			}
			// Event counts are deterministic: any drift means the
			// simulation itself changed, not just its speed.
			if got.Events != want.Events {
				fmt.Fprintf(os.Stderr, "benchjson: DETERMINISM %s: %d events, committed %d\n",
					name, got.Events, want.Events)
				failed = true
			}
			// Allocation behavior is near machine-independent; slack
			// covers GC-timing jitter in amortized slice growth only.
			if allocLimit := want.AllocsPerEvent*1.25 + 0.5; got.AllocsPerEvent > allocLimit {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.4f allocs/event > %.4f (committed %.4f)\n",
					name, got.AllocsPerEvent, allocLimit, want.AllocsPerEvent)
				failed = true
			}
			limit := want.NsPerEvent * scale * (1 + *tolerance)
			if got.NsPerEvent > limit {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.1f ns/event > %.1f (committed %.1f, speed scale %.2f, +%.0f%%)\n",
					name, got.NsPerEvent, limit, want.NsPerEvent, scale, 100**tolerance)
				failed = true
			} else {
				fmt.Printf("check %-16s ok: %.1f ns/event vs committed %.1f (limit %.1f)\n",
					name, got.NsPerEvent, want.NsPerEvent, limit)
			}
		}
		if ref.Fork != nil {
			if forkBlock == nil {
				fmt.Fprintln(os.Stderr, "benchjson: snapshot-fork block committed but no fork measurement ran")
				failed = true
			} else if forkBlock.ColdOverFork < 10 {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION snapshot-fork: cold boot is only %.1f× a fork (%.1f µs vs %.1f µs), gate is 10×\n",
					forkBlock.ColdOverFork, forkBlock.NsPerColdBoot/1e3, forkBlock.NsPerFork/1e3)
				failed = true
			} else {
				fmt.Printf("check snapshot-fork    ok: fork %.1f µs vs cold boot %.1f µs (%.0f×, gate 10×)\n",
					forkBlock.NsPerFork/1e3, forkBlock.NsPerColdBoot/1e3, forkBlock.ColdOverFork)
			}
		}
		if ref.Migration != nil {
			if migrationBlock == nil {
				fmt.Fprintln(os.Stderr, "benchjson: migration block committed but no migration sweep ran")
				failed = true
			} else {
				over := 0
				for _, c := range migrationBlock.Cells {
					if !c.UnderBudget {
						fmt.Fprintf(os.Stderr, "benchjson: REGRESSION migration ws=%d kill=%v: downtime %.3f ms over budget %.3f ms\n",
							c.WorkingSetPages, c.Kill, float64(c.DowntimeNs)/1e6, float64(c.BudgetNs)/1e6)
						failed = true
						over++
					}
				}
				if over == 0 {
					fmt.Printf("check migration        ok: %d cells under downtime budget\n", len(migrationBlock.Cells))
				}
			}
		}
		if ref.Serving != nil {
			if servingBlock == nil {
				fmt.Fprintln(os.Stderr, "benchjson: serving block committed but no serving sweep ran")
				failed = true
			} else if servingBlock.MeanWarmPrepUS >= servingBlock.MeanColdPrepUS {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION serving: warm fork %.1f µs >= cold boot %.1f µs — the reuse win is gone\n",
					servingBlock.MeanWarmPrepUS, servingBlock.MeanColdPrepUS)
				failed = true
			} else {
				fmt.Printf("check serving          ok: warm fork %.1f µs vs cold boot %.1f µs (%.1f×) across %d cells\n",
					servingBlock.MeanWarmPrepUS, servingBlock.MeanColdPrepUS, servingBlock.WarmOverCold, len(servingBlock.Cells))
			}
		}
		if failed {
			os.Exit(1)
		}
	}

	if *out != "" {
		f := &File{
			Schema:       "khsim-bench/1",
			Go:           runtime.Version(),
			Note:         "wall-clock throughput of the internal/sim discrete-event engine; see EXPERIMENTS.md",
			CalibNsPerOp: calibrate(),
			Fork:         forkBlock,
			Migration:    migrationBlock,
			Serving:      servingBlock,
			Scenarios:    results,
		}
		if prev, err := readFile(*out); err == nil {
			f.Baseline = prev.Baseline
		}
		if *recordBaseline != "" {
			f.Baseline = &Baseline{Label: *recordBaseline, Scenarios: results}
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
}
