package harness

// Golden determinism tests. The hashes below were captured from the
// pre-substrate implementation (separate kitten/linuxos schedulers), so
// they pin two properties at once: the substrate refactor preserved
// behaviour bit-for-bit, and future changes to the shared kernel cannot
// silently shift the paper's reproduction numbers. If a deliberate
// behaviour change invalidates them, recapture and say so in the commit.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"khsim/internal/cluster"
	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/kitten"
	"khsim/internal/metrics"
	"khsim/internal/serve"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

func TestSelfishGolden(t *testing.T) {
	want := map[Config]struct {
		count   int
		elapsed sim.Duration
		hash    string
	}{
		Native:   {20, 2000045027760, "e2b174e023e5f2d5ce3547d4"},
		KittenVM: {40, 2000212624800, "eb6dd245ade6da9c12d9cf5e"},
		LinuxVM:  {559, 2009189113789, "da35ef4869ccf8d2f984e279"},
	}
	for _, cfg := range Configs {
		r, err := RunSelfish(cfg, 1, sim.FromSeconds(2))
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		h := sha256.New()
		for _, d := range r.Detours {
			fmt.Fprintf(h, "%d %d\n", d.At, d.Duration)
		}
		got := fmt.Sprintf("%x", h.Sum(nil)[:12])
		w := want[cfg]
		if r.Count() != w.count || r.Elapsed != w.elapsed || got != w.hash {
			t.Errorf("%v: detours=%d elapsed=%d hash=%s, want detours=%d elapsed=%d hash=%s",
				cfg, r.Count(), r.Elapsed, got, w.count, w.elapsed, w.hash)
		}
	}
}

func TestMicroGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("27 full workload sims; skipped in -short")
	}
	const want = "cf10809ac7071fa0bc93eb30f62212014ef38e7fa74f9a1558d57d0f199c9c92"
	tb, err := MicroExperiment(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(tb.Format())))
	if got != want {
		t.Errorf("MicroExperiment(3,7) hash = %s, want %s\n%s", got, want, tb.Format())
	}
}

// TestBenchTableParallelMatchesSequential pins the satellite contract:
// fanning (config, trial) sims across goroutines must be bit-identical
// to the sequential order, because every trial gets its seed from the
// shared sim.SeedStream and engines share no state.
func TestBenchTableParallelMatchesSequential(t *testing.T) {
	specs := []workload.Spec{workload.Stream(), workload.GUPS()}
	seq, err := runBenchTableWith("par-vs-seq", specs, 2, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runBenchTableWith("par-vs-seq", specs, 2, 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.Format(), par.Format(); s != p {
		t.Errorf("parallel table differs from sequential:\nsequential:\n%s\nparallel:\n%s", s, p)
	}
	for _, spec := range specs {
		for _, cfg := range Configs {
			s, p := seq.Get(spec.Name, cfg), par.Get(spec.Name, cfg)
			if s != p {
				t.Errorf("%s/%v: sequential %+v != parallel %+v", spec.Name, cfg, s, p)
			}
		}
	}
}

// TestClusterArtifactGolden pins the cluster layer's artifacts across
// commits: the failover artifact of the built-in 3-node scenario, the
// same at 8 nodes and at 8 nodes with densely chunked replica spins, and
// the live-migration suite, each with its engine event count. The hashes
// were captured before the parallel cluster engine and its window-safety
// code were deleted, so they prove the sequential multiplexer alone
// writes the same bytes. The migration suite's event count and hash moved
// when the commit ack timer became a register and stopped firing after
// the ack; its hash without event counts was captured before that, so it
// proves nothing else moved.
func TestClusterArtifactGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		chunk  sim.Duration
		events uint64
		hash   string
	}{
		{"3node", 3, 0, 2685, "392644df1f53053e24d03e5960eb9f02d81769fcaa588578ab09004926144fe3"},
		{"8node", 8, 0, 9294, "a0de7d4c9582972398e477e081921af23e2314412673fe58a5fce942882a34aa"},
		{"8node-dense", 8, sim.FromMicros(40), 88785, "22bd1d6ec51830e96296466efc7bc9efcf69911dcc8edc9c80e1df8d0675a977"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := cluster.ParseManifest(ClusterManifestText)
			if err != nil {
				t.Fatal(err)
			}
			m.Nodes, m.SpinChunk = tc.nodes, tc.chunk
			r, err := RunClusterManifest(m, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Artifact())))
			if r.EventsFired != tc.events || got != tc.hash {
				t.Errorf("events=%d hash=%s, want events=%d hash=%s", r.EventsFired, got, tc.events, tc.hash)
			}
		})
	}
	t.Run("migration", func(t *testing.T) {
		const (
			wantEvents   = 3726
			wantHash     = "2084a11a83d0711322e224d87c8375529e7dcf10def20bfbee35e2597d553e34"
			wantStripped = "2c6d76e6708aede70d73aac6659fdaaad0a88e5c9ed1de066f16b5206e07b67f"
		)
		r, err := RunMigrationSuite(1)
		if err != nil {
			t.Fatal(err)
		}
		var events uint64
		for _, c := range r.Cells {
			events += c.EventsFired
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Artifact())))
		if events != wantEvents || got != wantHash {
			t.Errorf("events=%d hash=%s, want events=%d hash=%s", events, got, wantEvents, wantHash)
		}
		if got := strippedHash(r.Artifact()); got != wantStripped {
			t.Errorf("hash without event counts = %s, want %s", got, wantStripped)
		}
	})
}

// TestServingRegistryGolden pins the full metrics-registry snapshot of a
// short serving run under each primary: every series the hypervisor,
// kernels, guests and pool register, with its value, plus the pull-side
// gauges. The hashes moved when the TTL reaper became a register and
// stopped firing no-op reaps, which only the engine.events_fired gauge
// counts; the hashes without that gauge were captured before, so they
// prove the registry registers exactly the series it did, with the same
// values. All four moved again when the registry's histogram kind (whose
// one series, serve.latency_us, binned the pool's exact latency sample)
// and the always-zero tlb hit, miss and fill gauges were deleted; each
// new hash is the old commit's hash of its text without those lines.
// The Linux hash moved again when idle Linux-primary ticks became
// arithmetic settled at the core's next touch, which fires fewer events
// and moves only the engine.events_fired gauge. All four moved when the
// el2.runs series, which counted each RunVCPU a second time beside
// el2.hypercall.run, was deleted, to the previous commit's hashes of the
// text without its lines.
func TestServingRegistryGolden(t *testing.T) {
	want := map[core.Scheduler]struct{ hash, stripped string }{
		core.SchedulerKitten: {
			"e7d4230b73e7d25b97ee78b50e30ef93464c1f370d15b67f634907fe9ab6f359",
			"23e8807a2124540843b3759f74422761729b091a7ee544ecf094f99fa9493160",
		},
		core.SchedulerLinux: {
			"24890a473fb5192daaa6951597c6872d5cb6f132a58e41162395e1741a20abfb",
			"d4f78c7894cb1cc4142cd4b368c319140ce54d9ebb4978bc4cd0e9a3e965f97c",
		},
	}
	for sched, w := range want {
		n, _ := startServingCell(t, sched, 4000, sim.FromSeconds(0.1))
		n.Run(sim.FromSeconds(0.15))
		text := n.Machine.SnapshotMetrics().Text()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != w.hash {
			t.Errorf("%v: registry snapshot hash = %s, want %s", sched, got, w.hash)
		}
		if got := strippedHash(text); got != w.stripped {
			t.Errorf("%v: registry snapshot hash without event counts = %s, want %s", sched, got, w.stripped)
		}
	}
}

// strippedHash is the sha256 of text without the lines that carry an
// engine event count ("events_fired=", "events fired=", the
// engine.events_fired gauge). A change that only stops no-op events from
// firing moves those lines and nothing else.
func strippedHash(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.Contains(line, "events_fired") && !strings.Contains(line, "events fired") {
			b.WriteString(line)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// startServingCell boots one node of the built-in serving scenario under
// the given primary and starts its pool at rate jobs/s, with arrivals
// generated for run of simulated time. The caller runs the node.
func startServingCell(t *testing.T, sched core.Scheduler, rate float64, run sim.Duration) (*core.SecureNode, *serve.Pool) {
	t.Helper()
	cfg, err := serve.ParseManifest(ServingManifestText)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Run = run
	n, err := core.NewSecureNode(core.Options{Seed: 1, Manifest: cfg.NodePlan, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	p, err := serve.NewPool(n, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(rate); err != nil {
		t.Fatal(err)
	}
	return n, p
}

// TestServingArtifactGolden pins the serving sweep across commits: the
// sha256 of the seed-1 sweep artifact and the engine events summed over
// its cells. The event count and hash moved when the TTL reaper became a
// register: a reap that finds its environment moved no longer fires. The
// hash without event counts was captured before that, so it proves every
// reap, dispatch and ledger record stayed where it was. Both moved again
// when idle Linux-primary ticks became arithmetic settled at the core's
// next touch: the Linux cells fire fewer events.
func TestServingArtifactGolden(t *testing.T) {
	const (
		wantEvents   = 156154
		wantHash     = "073906e91559f552d8c17c7f8ad8c9481d6544294689ca2822740a350f0989f0"
		wantStripped = "720721c73c6c503874e0ed3b83913aa099cc8a04ba44b0804c01f3673f603758"
	)
	r, err := RunServingSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	for _, c := range r.Cells {
		events += c.Report.EventsFired
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Artifact())))
	if events != wantEvents || got != wantHash {
		t.Errorf("events=%d hash=%s, want events=%d hash=%s", events, got, wantEvents, wantHash)
	}
	if got := strippedHash(r.Artifact()); got != wantStripped {
		t.Errorf("hash without event counts = %s, want %s", got, wantStripped)
	}
}

// TestFaultContainmentGolden pins the seed-1 containment experiment: its
// report, its fault trace and the faulted node's full registry snapshot.
// The trace holds the TLBCorrupt records and the registry holds the
// per-core tlb.invalidations that crash containment bumps, so the TLB
// invalidation paths cannot move without this hash moving. The hash was
// first captured while each core still carried a TLB model, so it proves
// the per-core count that replaced it records every invalidation the
// model did; it moved only when the always-zero tlb hit, miss and fill
// gauges were deleted, to the old commit's hash of the text without
// them, and again, the same way, when the el2.runs series was deleted.
func TestFaultContainmentGolden(t *testing.T) {
	const want = "4e3f727924272ac9c8ea51106e4e1c71e1f3227f7e051129ad9212216b30afd3"
	// 0.3 s spans three of the Kitten primary's 10 Hz ticks, so the
	// report compares non-empty detour profiles.
	runTime := sim.FromSeconds(0.3)
	r, err := RunFaultContainment(1, runTime)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.Count() == 0 {
		t.Fatal("the primary recorded no detour, so the report pins an empty profile")
	}
	_, n, _, err := runContainmentSide(1, runTime, true)
	if err != nil {
		t.Fatal(err)
	}
	registry := n.Machine.SnapshotMetrics()
	if v, _ := registry.Gauge(metrics.K("tlb", "invalidations").WithCore(1)); v == 0 {
		t.Fatal("crash containment recorded no TLB invalidation on the victim's core")
	}
	h := sha256.New()
	fmt.Fprint(h, r)
	tlbWipes := 0
	for _, rec := range r.Trace {
		fmt.Fprintln(h, rec)
		if rec.Kind == faults.TLBCorrupt {
			tlbWipes++
		}
	}
	if tlbWipes == 0 {
		t.Fatal("the trace holds no TLBCorrupt record")
	}
	fmt.Fprint(h, registry.Text())
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("containment golden hash = %s, want %s", got, want)
	}
}

// TestFlushAllRegistryGolden pins the full registry snapshot of a short
// Linux-primary RandomAccess run under tlb = flush-all, the stack
// BenchmarkAblationTLBPolicy measures: every guest-to-primary switch-out
// under that policy counts one TLB invalidation on its core. Like the
// containment golden, its hash predates the TLB model's removal, less
// the always-zero tlb hit, miss and fill gauges deleted after it. It
// moved when idle Linux-primary ticks became arithmetic settled at the
// core's next touch, which moves only the engine.events_fired gauge; the
// hash without event counts was captured before that. Both moved when the
// el2.runs series was deleted, to the previous commit's hashes of the
// text without its lines.
func TestFlushAllRegistryGolden(t *testing.T) {
	const (
		want         = "b6934c6215e94c149f0797efb58b8fb930d81d30a63d97319aefdcc5e348d01a"
		wantStripped = "9cd767cfd39dd902ce6ea02fea216ed86779c2be4b6f7bfc55ef258224778baf"
	)
	n, err := core.NewSecureNode(core.Options{
		Seed: 42, Scheduler: core.SchedulerLinux,
		Manifest: `tlb = flush-all

[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 512
working_set_pages = 256
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, workload.New(workload.GUPS(), workload.Env{TwoStage: true, RNG: sim.NewRNG(3)}))
	if err := n.AttachGuest("job", guest); err != nil {
		t.Fatal(err)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	n.Run(sim.FromSeconds(0.2))
	registry := n.Machine.SnapshotMetrics()
	var flushes float64
	for c := range n.Machine.Cores {
		v, _ := registry.Gauge(metrics.K("tlb", "invalidations").WithCore(c))
		flushes += v
	}
	if flushes == 0 {
		t.Fatal("no flush-all switch-out recorded a TLB invalidation")
	}
	text := registry.Text()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want {
		t.Errorf("flush-all registry hash = %s, want %s", got, want)
	}
	if got := strippedHash(text); got != wantStripped {
		t.Errorf("flush-all registry hash without event counts = %s, want %s", got, wantStripped)
	}
}
