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
	"testing"

	"khsim/internal/cluster"
	"khsim/internal/core"
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
// writes the same bytes.
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
		const wantEvents, wantHash = 3730, "76e81546cacc8989f833c6484e1ff46d1fd9ae12c724bf97d61ee078ba0d2991"
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
	})
}

// TestServingRegistryGolden pins the full metrics-registry snapshot of a
// short serving run under each primary: every series the hypervisor,
// kernels, guests and pool register, with its value, plus the pull-side
// gauges. The hashes were captured before the hot-path counters became
// lazily cached slots, so they prove the cached counters register
// exactly the series the per-call lookups did, no more and no fewer.
func TestServingRegistryGolden(t *testing.T) {
	want := map[core.Scheduler]string{
		core.SchedulerKitten: "e8890cde555b70594e50058145b1b163ee10b2223f012d8a344e26e24e77ca7a",
		core.SchedulerLinux:  "15446b87daa5d7e3b1f71c72cb54ccce86da8fa0e25c4af04db0874c2ea56893",
	}
	for sched, hash := range want {
		n, _ := startServingCell(t, sched, 4000, sim.FromSeconds(0.1))
		n.Run(sim.FromSeconds(0.15))
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(n.Machine.SnapshotMetrics().Text())))
		if got != hash {
			t.Errorf("%v: registry snapshot hash = %s, want %s", sched, got, hash)
		}
	}
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
