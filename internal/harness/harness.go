// Package harness runs the paper's three evaluation configurations —
// native Kitten, a Kitten secondary VM with a Kitten scheduler VM, and a
// Kitten secondary VM with a Linux scheduler VM — and regenerates every
// figure and table of §V.
package harness

import (
	"fmt"

	"khsim/internal/core"
	"khsim/internal/kitten"
	"khsim/internal/machine"
	"khsim/internal/noise"
	"khsim/internal/osapi"
	"khsim/internal/sim"
	"khsim/internal/stats"
	"khsim/internal/workload"
)

// Config is one of the paper's three execution configurations.
type Config int

// The three configurations of §V.
const (
	// Native: the benchmark runs on bare-metal Kitten (Fig 4 baseline).
	Native Config = iota
	// KittenVM: the benchmark runs in a Kitten secondary VM with Kitten
	// as the Hafnium primary scheduler (the paper's system, Fig 5).
	KittenVM
	// LinuxVM: the benchmark runs in a Kitten secondary VM with Linux as
	// the Hafnium primary scheduler (the baseline, Fig 6).
	LinuxVM
)

// Configs lists the three configurations in paper order.
var Configs = []Config{Native, KittenVM, LinuxVM}

// String returns the configuration's name as ParseConfig accepts it.
func (c Config) String() string {
	switch c {
	case Native:
		return "native"
	case KittenVM:
		return "kitten"
	case LinuxVM:
		return "linux"
	default:
		return fmt.Sprintf("Config(%d)", int(c))
	}
}

// TwoStage reports whether the configuration runs the workload under
// nested translation.
func (c Config) TwoStage() bool { return c != Native }

// vmManifest is the partition plan for the virtualized configurations:
// a 4-VCPU primary plus one single-VCPU job VM sized like the paper's
// benchmark environment.
const vmManifest = `
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

// ParseConfig maps a configuration name ("native", "kitten", "linux")
// back to its Config.
func ParseConfig(name string) (Config, bool) {
	for _, c := range Configs {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// registerProc adds a benchmark process to the node's composite
// snapshot when it can be snapshotted, so node forks rewind its result
// buffers along with the kernel that schedules it.
func registerProc(node *machine.Node, proc osapi.Process) {
	if s, ok := proc.(sim.Snapshotter); ok {
		node.RegisterSnapshotter("proc."+proc.Name(), s)
	}
}

// runProcess executes proc to completion in the given configuration and
// returns the simulated machine, so callers can collect a metrics
// snapshot or trace after the run. With spans set it enables
// execution-slice trace spans before the engine runs, for the Perfetto
// exporter. It reports an error if proc does not finish within horizon.
func runProcess(cfg Config, seed uint64, proc osapi.Process, finished func() bool, horizon sim.Duration, spans bool) (*machine.Node, error) {
	var node *machine.Node
	switch cfg {
	case Native:
		n, err := core.NewNativeNode(seed, kitten.Params{})
		if err != nil {
			return nil, err
		}
		node = n.Machine
		if spans {
			node.Trace.SetSpans(true)
		}
		registerProc(node, proc)
		if _, err := n.Kernel.Spawn(proc.Name(), 0, proc); err != nil {
			return nil, err
		}
		n.Run(horizon)
	case KittenVM, LinuxVM:
		sched := core.SchedulerKitten
		if cfg == LinuxVM {
			sched = core.SchedulerLinux
		}
		n, err := core.NewSecureNode(core.Options{
			Seed:      seed,
			Manifest:  vmManifest,
			Scheduler: sched,
		})
		if err != nil {
			return nil, err
		}
		node = n.Machine
		if spans {
			node.Trace.SetSpans(true)
		}
		guest := kitten.NewGuest(kitten.DefaultParams())
		guest.Attach(0, proc)
		registerProc(node, proc)
		if err := n.AttachGuest("job", guest); err != nil {
			return nil, err
		}
		if err := n.Boot(); err != nil {
			return nil, err
		}
		n.Run(horizon)
	default:
		return nil, fmt.Errorf("harness: unknown config %v", cfg)
	}
	if !finished() {
		return nil, fmt.Errorf("harness: %s did not finish within %v on %v", proc.Name(), horizon, cfg)
	}
	return node, nil
}

// RunCustom boots a secure node with explicit options, runs proc on VCPU 0
// of the VM named jobVM under a Kitten guest kernel with guestParams, and
// simulates until finished() or the horizon. Ablation benches use it to
// sweep tick rates, routing and TLB policies.
func RunCustom(opts core.Options, jobVM string, guestParams kitten.Params, proc osapi.Process, finished func() bool, horizon sim.Duration) (*core.SecureNode, error) {
	n, err := core.NewSecureNode(opts)
	if err != nil {
		return nil, err
	}
	guest := kitten.NewGuest(guestParams)
	guest.Attach(0, proc)
	registerProc(n.Machine, proc)
	if err := n.AttachGuest(jobVM, guest); err != nil {
		return nil, err
	}
	if err := n.Boot(); err != nil {
		return nil, err
	}
	n.Run(horizon)
	if !finished() {
		return nil, fmt.Errorf("harness: %s did not finish within %v", proc.Name(), horizon)
	}
	return n, nil
}

// RunSelfish runs the selfish-detour benchmark (Figs 4–6) for runTime of
// spin work in the given configuration.
func RunSelfish(cfg Config, seed uint64, runTime sim.Duration) (*noise.SelfishResult, error) {
	r, _, err := RunSelfishNode(cfg, seed, runTime, false)
	return r, err
}

// RunSelfishNode is RunSelfish returning the simulated node too, whose
// metrics registry and trace the run left behind; spans enables
// execution-slice trace spans.
func RunSelfishNode(cfg Config, seed uint64, runTime sim.Duration, spans bool) (*noise.SelfishResult, *machine.Node, error) {
	s := noise.NewSelfish(cfg.String(), runTime)
	horizon := runTime + runTime/2 + sim.FromSeconds(2)
	node, err := runProcess(cfg, seed, s, func() bool { return s.Result.Finished }, horizon, spans)
	if err != nil {
		return nil, nil, err
	}
	return &s.Result, node, nil
}

// RunFTQ runs the fixed-time-quantum benchmark in the given configuration.
func RunFTQ(cfg Config, seed uint64, windows int) (*noise.FTQ, error) {
	f := noise.NewFTQ(cfg.String(), windows)
	horizon := sim.Duration(windows)*f.Window*2 + sim.FromSeconds(2)
	if _, err := runProcess(cfg, seed, f, func() bool { return f.Finished }, horizon, false); err != nil {
		return nil, err
	}
	return f, nil
}

// RunWorkload runs one benchmark trial in the given configuration.
func RunWorkload(cfg Config, spec workload.Spec, seed uint64) (workload.Result, error) {
	r, _, err := RunWorkloadNode(cfg, spec, seed, false)
	return r, err
}

// RunWorkloadNode is RunWorkload returning the simulated node too, whose
// metrics registry and trace the run left behind; spans enables
// execution-slice trace spans.
func RunWorkloadNode(cfg Config, spec workload.Spec, seed uint64, spans bool) (workload.Result, *machine.Node, error) {
	env := workload.Env{TwoStage: cfg.TwoStage(), RNG: sim.NewRNG(seed*2654435761 + uint64(cfg))}
	r := workload.New(spec, env)
	est := sim.FromSeconds(spec.TotalOps / spec.NativeRate)
	horizon := est*2 + sim.FromSeconds(2)
	node, err := runProcess(cfg, seed, r, func() bool { return r.Result.Finished }, horizon, spans)
	if err != nil {
		return workload.Result{}, nil, err
	}
	return r.Result, node, nil
}

// Trials runs n seeded trials of a benchmark and returns the rate sample
// (in the spec's reporting units).
func Trials(cfg Config, spec workload.Spec, n int, seedBase uint64) (*stats.Sample, error) {
	var s stats.Sample
	stream := sim.NewSeedStream(seedBase)
	for i := 0; i < n; i++ {
		res, err := RunWorkload(cfg, spec, stream.Seed(i))
		if err != nil {
			return nil, err
		}
		s.Add(res.Rate)
	}
	return &s, nil
}
