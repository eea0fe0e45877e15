package harness

import (
	"fmt"

	"khsim/internal/core"
	"khsim/internal/device"
	"khsim/internal/kitten"
	"khsim/internal/linuxos"
	"khsim/internal/noise"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// This file carries the experiments beyond the paper's published
// evaluation — the §VII future-work directions: multi-VCPU scaling,
// performance isolation under competing workloads, and device-interrupt
// noise (the I/O routing question).

// parallelManifest builds a job VM with n VCPUs.
func parallelManifest(vcpus int) string {
	return fmt.Sprintf(`
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = %d
memory_mb = 512
working_set_pages = 256
`, vcpus)
}

// RunParallelWorkload splits spec across `vcpus` VCPUs of the job VM
// (each pinned to its own core by the primary's incremental spread) and
// reports the aggregate result plus the speedup over the calibrated
// single-core native rate.
func RunParallelWorkload(cfg Config, spec workload.Spec, vcpus int, seed uint64) (workload.Result, float64, error) {
	if cfg == Native {
		return workload.Result{}, 0, fmt.Errorf("harness: parallel runs need a VM configuration")
	}
	if vcpus < 1 || vcpus > 4 {
		return workload.Result{}, 0, fmt.Errorf("harness: %d vcpus out of range", vcpus)
	}
	sched := core.SchedulerKitten
	if cfg == LinuxVM {
		sched = core.SchedulerLinux
	}
	n, err := core.NewSecureNode(core.Options{
		Seed: seed, Manifest: parallelManifest(vcpus), Scheduler: sched,
	})
	if err != nil {
		return workload.Result{}, 0, err
	}
	par, err := workload.NewParallel(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(seed ^ 0xabc)}, vcpus)
	if err != nil {
		return workload.Result{}, 0, err
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	for i := 0; i < vcpus; i++ {
		guest.Attach(i, par.Shard(i))
	}
	if err := n.AttachGuest("job", guest); err != nil {
		return workload.Result{}, 0, err
	}
	if err := n.Boot(); err != nil {
		return workload.Result{}, 0, err
	}
	est := sim.FromSeconds(spec.TotalOps / spec.NativeRate / float64(vcpus))
	n.Run(est*3 + sim.FromSeconds(2))
	if !par.Finished() {
		return workload.Result{}, 0, fmt.Errorf("harness: parallel %s did not finish", spec.Name)
	}
	return par.Result, par.Speedup(), nil
}

// InterferenceResult reports a victim benchmark's performance alone and
// with a CPU-hog VM competing.
type InterferenceResult struct {
	Solo      workload.Result
	Contended workload.Result
}

// Slowdown reports solo rate / contended rate (1.0 = perfect isolation,
// 2.0 = fair halving on a shared core).
func (r InterferenceResult) Slowdown() float64 {
	if r.Contended.Rate == 0 {
		return 0
	}
	return r.Solo.Rate / r.Contended.Rate
}

const interferenceManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm victim]
class = secondary
vcpus = 1
memory_mb = 256
working_set_pages = 256

[vm hog]
class = secondary
vcpus = 1
memory_mb = 256
`

// RunInterference measures performance isolation (§VII): the victim
// benchmark runs in one secondary VM while a spin-loop hog runs in
// another, either time-sharing the victim's core (sameCore) or pinned
// elsewhere. Under the paper's thesis a Kitten primary gives clean,
// deterministic sharing and perfect cross-core isolation.
func RunInterference(cfg Config, spec workload.Spec, seed uint64, sameCore bool) (InterferenceResult, error) {
	if cfg == Native {
		return InterferenceResult{}, fmt.Errorf("harness: interference runs need a VM configuration")
	}
	run := func(withHog bool) (workload.Result, error) {
		sched := core.SchedulerKitten
		if cfg == LinuxVM {
			sched = core.SchedulerLinux
		}
		n, err := core.NewSecureNode(core.Options{
			Seed: seed, Manifest: interferenceManifest, Scheduler: sched,
		})
		if err != nil {
			return workload.Result{}, err
		}
		victim := workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(seed + 9)})
		vg := kitten.NewGuest(kitten.DefaultParams())
		vg.Attach(0, victim)
		if err := n.AttachGuest("victim", vg, 0); err != nil {
			return workload.Result{}, err
		}
		hogCore := 1
		if sameCore {
			hogCore = 0
		}
		hg := kitten.NewGuest(kitten.DefaultParams())
		if withHog {
			hg.Attach(0, noise.NewSelfish("hog", sim.FromSeconds(3600)))
		}
		if err := n.AttachGuest("hog", hg, hogCore); err != nil {
			return workload.Result{}, err
		}
		if err := n.Boot(); err != nil {
			return workload.Result{}, err
		}
		est := sim.FromSeconds(spec.TotalOps / spec.NativeRate)
		horizon := est*4 + sim.FromSeconds(2)
		n.Run(horizon)
		if !victim.Result.Finished {
			return workload.Result{}, fmt.Errorf("harness: victim did not finish (hog=%v)", withHog)
		}
		return victim.Result, nil
	}
	solo, err := run(false)
	if err != nil {
		return InterferenceResult{}, err
	}
	contended, err := run(true)
	if err != nil {
		return InterferenceResult{}, err
	}
	return InterferenceResult{Solo: solo, Contended: contended}, nil
}

// GuestKernel selects the kernel inside the benchmark VM.
type GuestKernel int

// Guest kernel choices.
const (
	GuestKitten GuestKernel = iota
	GuestLinux
)

// String returns the guest kernel's name.
func (g GuestKernel) String() string {
	if g == GuestLinux {
		return "linux-guest"
	}
	return "kitten-guest"
}

// RunWorkloadGuest runs spec in a secondary VM whose *guest* kernel is
// selectable — extending the paper's thesis one level down: the LWK
// matters inside the workload VM too, because a Linux guest brings its
// own 250 Hz tick and kthread work into the partition.
func RunWorkloadGuest(cfg Config, guest GuestKernel, spec workload.Spec, seed uint64) (workload.Result, error) {
	if cfg == Native {
		return workload.Result{}, fmt.Errorf("harness: guest-kernel runs need a VM configuration")
	}
	sched := core.SchedulerKitten
	if cfg == LinuxVM {
		sched = core.SchedulerLinux
	}
	n, err := core.NewSecureNode(core.Options{
		Seed: seed, Manifest: vmManifest, Scheduler: sched,
	})
	if err != nil {
		return workload.Result{}, err
	}
	run := workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(seed*31 + uint64(guest))})
	switch guest {
	case GuestKitten:
		g := kitten.NewGuest(kitten.DefaultParams())
		g.Attach(0, run)
		err = n.AttachGuest("job", g)
	case GuestLinux:
		g := linuxos.NewGuest(linuxos.DefaultParams(), seed)
		g.Attach(0, run)
		err = n.AttachGuest("job", g)
	default:
		return workload.Result{}, fmt.Errorf("harness: unknown guest kernel %d", guest)
	}
	if err != nil {
		return workload.Result{}, err
	}
	if err := n.Boot(); err != nil {
		return workload.Result{}, err
	}
	est := sim.FromSeconds(spec.TotalOps / spec.NativeRate)
	n.Run(est*3 + sim.FromSeconds(2))
	if !run.Result.Finished {
		return workload.Result{}, fmt.Errorf("harness: %s under %v did not finish", spec.Name, guest)
	}
	return run.Result, nil
}

// DeviceNoiseResult reports a benchmark's exposure to device-interrupt
// traffic hitting its core.
type DeviceNoiseResult struct {
	Result     workload.Result
	IRQsRaised uint64
}

// RunDeviceNoise runs spec in a secondary VM on core 0 while a periodic
// device raises SPIs at irqRate routed to the same core; with the
// paper's current routing every interrupt world-switches the benchmark
// out so the primary can forward it. This quantifies the I/O-routing
// problem §III-b and §VII discuss.
func RunDeviceNoise(cfg Config, spec workload.Spec, irqRate sim.Hertz, seed uint64) (DeviceNoiseResult, error) {
	if cfg == Native {
		return DeviceNoiseResult{}, fmt.Errorf("harness: device-noise runs need a VM configuration")
	}
	sched := core.SchedulerKitten
	if cfg == LinuxVM {
		sched = core.SchedulerLinux
	}
	n, err := core.NewSecureNode(core.Options{
		Seed: seed, Manifest: vmManifest, Scheduler: sched,
	})
	if err != nil {
		return DeviceNoiseResult{}, err
	}
	run := workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(seed + 5)})
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, run)
	if err := n.AttachGuest("job", guest, 0); err != nil {
		return DeviceNoiseResult{}, err
	}
	if err := n.Boot(); err != nil {
		return DeviceNoiseResult{}, err
	}
	var dev *device.Periodic
	if irqRate > 0 {
		dev = device.NewPeriodic("nic", 48, irqRate)
		dev.Jitter = 0.2
		if err := dev.Start(n.Machine, 0); err != nil {
			return DeviceNoiseResult{}, err
		}
	}
	est := sim.FromSeconds(spec.TotalOps / spec.NativeRate)
	n.Run(est*3 + sim.FromSeconds(2))
	if !run.Result.Finished {
		return DeviceNoiseResult{}, fmt.Errorf("harness: workload did not finish under device noise")
	}
	out := DeviceNoiseResult{Result: run.Result}
	if dev != nil {
		dev.Stop()
		out.IRQsRaised = dev.Raised()
	}
	return out, nil
}
