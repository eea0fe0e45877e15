// Command khsim boots a simulated secure node from a Hafnium manifest
// and runs one of the paper's benchmarks inside a secondary VM, printing
// the result and the hypervisor's activity counters.
//
// Usage:
//
//	khsim [-manifest FILE] [-scheduler kitten|linux] [-bench NAME] [-seed S]
//	khsim faults [-manifest FILE] [-seed S] [-spec RULES] [-seconds N]
//	khsim metrics [-config native|kitten|linux] [-bench NAME] [-seed S] [-format text|json]
//	khsim trace [-config native|kitten|linux] [-bench NAME] [-seed S] [-format perfetto|tsv] [-out FILE] [-check]
//	khsim cluster|serve [-manifest FILE] [-seed S] [-artifact FILE] [-check]
//	khsim snapshot|forksweep|migrate|contain [-seed S] [-artifact FILE] [-check]
//	khsim obscheck
//
// With no manifest the paper's evaluation partition plan is used. Bench
// names: hpcg, stream, randomaccess, nas-lu, nas-bt, nas-cg, nas-ep,
// nas-sp, selfish.
//
// The faults subcommand runs the deterministic fault-injection campaign
// against a victim VM and prints the injection trace, the hypervisor's
// containment counters, and each VM's fate.
//
// The metrics subcommand runs one benchmark and prints the node's full
// metrics snapshot (world switches, hypercalls by function, virtual IRQ
// injections, stage-2 faults, TLB and timer activity, ring doorbells),
// deterministically: same seed, same snapshot, byte for byte. The trace
// subcommand exports the run's event trace as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev), or as TSV.
//
// Every experiment in harness.Experiments is a subcommand of its own
// name. Each prints its report, writes its deterministic artifact to
// -artifact (-artifact /dev/stdout shows it), and with -check exits
// non-zero unless its invariants hold; the two with a built-in scenario
// also read -manifest:
//
//   - cluster: multi-node failover. N secure-node stacks joined by a
//     simulated fabric, a Raft-lite service replicating the hash-chained
//     attestation ledger, and a manifest-scheduled fault campaign
//     (manifests/cluster-3node.manifest; set nodes = N for a bigger
//     rack). Failover must stay bounded and the ledgers converge.
//   - snapshot: captures a running stack, forks the timeline twice
//     verbatim and once with an injected VM crash; the verbatim forks
//     must replay bit-identically, the faulted one must diverge through
//     the watchdog's warm snapshot restore.
//   - forksweep: one boot, one warm snapshot, one forked timeline per
//     crash delay (none, 0.5, 1, 2 and 4 ms into an 8 ms window).
//   - migrate: live VM migration across a three-node cluster, sweeping
//     the working set to measure downtime, plus a cell that partitions
//     the target mid-transfer and must leave exactly one live copy; every
//     lifecycle step is a signed record in the replicated ledger.
//   - serve: the multi-tenant ephemeral-VM serving sweep. An open-loop
//     job stream is admitted through the login VM into a pool of recycled
//     environment VMs, across arrival rates under both primary kernels
//     (manifests/serving.manifest).
//   - contain: crash containment. The primary's selfish-detour noise
//     over 2 s must match detour for detour whether or not a sibling VM
//     is being crashed, stormed and corrupted.
//
// The obscheck subcommand is the observability gate at seed 1: it prints
// the Kitten STREAM metrics snapshot, validates a Perfetto export, and
// prints every experiment's artifact once its Check passes.
package main

import (
	"flag"
	"fmt"
	"os"

	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/hafnium"
	"khsim/internal/harness"
	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/osapi"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

const defaultManifest = `
# Paper evaluation plan: a scheduling VM plus one benchmark VM.
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

// faultsManifest is the faults subcommand's default plan: the victim VM
// carries a restart budget so injected crashes exercise the watchdog.
const faultsManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 8
restart_backoff_us = 200
`

func fail(err error) {
	fmt.Fprintf(os.Stderr, "khsim: %v\n", err)
	os.Exit(1)
}

// faultsCmd implements `khsim faults`.
func faultsCmd(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "Hafnium manifest file (default: built-in fault-recovery plan)")
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same fault trace)")
	spec := fs.String("spec", "crash:job:200ms,spurious::100ms,tlb::250ms,rogue:job:150ms",
		"fault rules: kind[:target[:mean]],... (kinds: spurious storm drift s2flip tlb crash rogue; "+
			"partition heal netdrop netdelay take node<N> targets and need a cluster run)")
	seconds := fs.Float64("seconds", 2, "simulated run time")
	fs.Parse(args)

	manifest := faultsManifest
	if *manifestPath != "" {
		b, err := os.ReadFile(*manifestPath)
		if err != nil {
			fail(err)
		}
		manifest = string(b)
	}
	rules, err := faults.ParseSpec(*spec)
	if err != nil {
		fail(err)
	}
	node, err := core.NewSecureNode(core.Options{
		Seed: *seed, Manifest: manifest, Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		fail(err)
	}
	runTime := sim.FromSeconds(*seconds)
	// Give every secondary a spin payload so faults always have live prey.
	for _, vm := range node.Hyp.VMs() {
		if vm.Class() == hafnium.Primary {
			continue
		}
		guest := kitten.NewGuest(kitten.DefaultParams())
		guest.Attach(0, noise.NewSelfish(vm.Name(), runTime*2))
		if err := node.AttachGuest(vm.Name(), guest); err != nil {
			fail(err)
		}
	}
	if err := node.Boot(); err != nil {
		fail(err)
	}
	in, err := faults.New(node.Machine, node.Hyp, *seed, rules)
	if err != nil {
		fail(err)
	}
	if err := in.Start(node.Machine.Now().Add(runTime)); err != nil {
		fail(err)
	}
	node.Run(runTime)

	fmt.Printf("fault injection: seed=%d spec=%q over %gs\n", *seed, *spec, *seconds)
	for _, rec := range in.Trace() {
		fmt.Println(rec)
	}
	ist := in.Stats()
	fmt.Printf("injected: %d faults\n", ist.Injected)
	st := node.Hyp.Stats()
	fmt.Printf("hypervisor: aborts=%d restarts=%d quarantines=%d scrubbed_pages=%d bad_hypercalls=%d worldswitches=%d\n",
		st.Aborts, st.Restarts, st.Quarantines, st.ScrubbedPages, st.BadHypercalls, st.WorldSwitches)
	for _, vm := range node.Hyp.VMs() {
		if vm.Class() == hafnium.Primary {
			continue
		}
		line := fmt.Sprintf("vm %-8s %-12v restarts=%d cpu=%v", vm.Name(), vm.State(), vm.Restarts(), node.Hyp.CPUTime(vm.ID()))
		if r := vm.CrashReason(); r != "" {
			line += " last_crash=" + r
		}
		fmt.Println(line)
	}
	if err := node.Hyp.VerifyIsolation(); err != nil {
		fail(fmt.Errorf("isolation violated: %w", err))
	}
	fmt.Println("isolation: verified")
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "faults":
			faultsCmd(os.Args[2:])
			return
		case "metrics":
			metricsCmd(os.Args[2:])
			return
		case "trace":
			traceCmd(os.Args[2:])
			return
		case "obscheck":
			obscheckCmd(os.Args[2:])
			return
		}
		for _, e := range harness.Experiments {
			if e.Name == os.Args[1] {
				experimentCmd(e, os.Args[2:])
				return
			}
		}
	}
	manifestPath := flag.String("manifest", "", "Hafnium manifest file (default: built-in evaluation plan)")
	schedName := flag.String("scheduler", "kitten", "primary VM kernel: kitten or linux")
	benchName := flag.String("bench", "randomaccess", "benchmark to run in the job VM")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	manifest := defaultManifest
	if *manifestPath != "" {
		b, err := os.ReadFile(*manifestPath)
		if err != nil {
			fail(err)
		}
		manifest = string(b)
	}
	var sched core.Scheduler
	switch *schedName {
	case "kitten":
		sched = core.SchedulerKitten
	case "linux":
		sched = core.SchedulerLinux
	default:
		fail(fmt.Errorf("unknown scheduler %q", *schedName))
	}

	var proc osapi.Process
	var report func()
	if *benchName == "selfish" {
		s := noise.NewSelfish(*schedName, sim.FromSeconds(10))
		proc = s
		report = func() { fmt.Println(s.Result.Summary()) }
	} else {
		spec, ok := workload.ByName(*benchName)
		if !ok {
			fail(fmt.Errorf("unknown benchmark %q (try -bench hpcg|stream|randomaccess|nas-*|selfish)", *benchName))
		}
		run := workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(*seed)})
		proc = run
		report = func() { fmt.Println(run.Result.String()) }
	}

	node, err := core.NewSecureNode(core.Options{
		Seed: *seed, Manifest: manifest, Scheduler: sched,
	})
	if err != nil {
		fail(err)
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, proc)
	if err := node.AttachGuest("job", guest); err != nil {
		fail(err)
	}
	if err := node.Boot(); err != nil {
		fail(err)
	}
	node.Run(sim.FromSeconds(60))

	fmt.Printf("node: %d cores @ %.3f GHz, scheduler=%s, config=%s\n",
		len(node.Machine.Cores), float64(node.Machine.Freq)/1e9, sched, harness.KittenVM)
	report()
	st := node.Hyp.Stats()
	fmt.Printf("hypervisor: traps=%d worldswitches=%d runs=%d injections=%d kicks=%d\n",
		st.Traps, st.WorldSwitches, st.Runs, st.Injections, st.Kicks)
	for _, vm := range node.Hyp.VMs() {
		if vm.Class() != hafnium.Primary {
			fmt.Printf("vm %-8s cpu time %v (%v)\n", vm.Name(), node.Hyp.CPUTime(vm.ID()), vm.State())
		}
	}
}
