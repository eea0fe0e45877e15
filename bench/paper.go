package main

import (
	"fmt"
	"math"

	"khsim/internal/core"
	"khsim/internal/hafnium"
	"khsim/internal/harness"
	"khsim/internal/kitten"
	"khsim/internal/machine"
	"khsim/internal/noise"
	"khsim/internal/osapi"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// paperManifest is the partition plan harness uses for its virtualized
// configurations: a 4-VCPU primary plus one single-VCPU job VM. Unit 0
// compares every trial with harness.RunWorkload, which fails if this copy
// drifts from harness's.
const paperManifest = `
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

// paper is the paper's §V evaluation. One unit is one trial round: every
// workload spec in each of the three configurations (native Kitten, Kitten
// secondary under a Kitten primary, Kitten secondary under a Linux
// primary), then a selfish-detour run in each configuration, every run on
// a fresh stack. It is dominated by stack construction, which is what the
// frame-owner map fill costs, while the Linux-primary runs exercise the
// steady-state tick path.
type paper struct {
	specs   []workload.Spec
	selfish sim.Duration
	ref     int

	rates  [][3]float64 // per spec and config: Σ rate over reference rounds
	stolen [3]float64   // per config: Σ selfish stolen fraction
	counts stackCounts
}

func newPaper(tiny bool) *paper {
	p := &paper{specs: workload.All(), selfish: sim.FromSeconds(30), ref: 4}
	if tiny {
		p.selfish, p.ref = sim.FromSeconds(1), 1
	}
	p.rates = make([][3]float64, len(p.specs))
	return p
}

func (p *paper) refUnits() int           { return p.ref }
func (p *paper) prepare(r *runner) error { return nil }

func (p *paper) unit(r *runner, i int, seed uint64) error {
	ref := i < p.ref
	for _, cfg := range harness.Configs {
		for si, spec := range p.specs {
			// The trial's inputs derive exactly as harness.RunWorkload
			// derives them.
			env := workload.Env{TwoStage: cfg.TwoStage(), RNG: sim.NewRNG(seed*2654435761 + uint64(cfg))}
			w := workload.New(spec, env)
			horizon := sim.FromSeconds(spec.TotalOps/spec.NativeRate)*2 + sim.FromSeconds(2)
			if err := p.trial(r, cfg, seed, w, horizon, ref); err != nil {
				return err
			}
			r.check(fmt.Sprintf("%s/%s finished", cfg, spec.Name), finished(w.Result.Finished, horizon))
			if !w.Result.Finished {
				continue
			}
			if ref {
				p.rates[si][cfg] += w.Result.Rate
			}
			if i == 0 {
				p.compare(r, cfg, spec, seed, w.Result.Rate)
			}
		}
	}
	for _, cfg := range harness.Configs {
		s := noise.NewSelfish(cfg.String(), p.selfish)
		horizon := p.selfish + p.selfish/2 + sim.FromSeconds(2)
		if err := p.trial(r, cfg, seed, s, horizon, ref); err != nil {
			return err
		}
		r.check(fmt.Sprintf("%s/selfish finished", cfg), finished(s.Result.Finished, horizon))
		if ref {
			p.stolen[cfg] += s.Result.StolenFraction()
		}
	}
	return nil
}

// compare checks one trial against harness.RunWorkload for the same
// configuration, spec and seed.
func (p *paper) compare(r *runner, cfg harness.Config, spec workload.Spec, seed uint64, rate float64) {
	var want workload.Result
	err := r.call("harness.check", func() (err error) {
		want, err = harness.RunWorkload(cfg, spec, seed)
		return err
	})
	if err == nil && want.Rate != rate {
		err = fmt.Errorf("rate %v, harness.RunWorkload gives %v", rate, want.Rate)
	}
	r.check(fmt.Sprintf("%s/%s matches harness", cfg, spec.Name), err)
}

// trial builds a fresh stack for cfg, runs proc on it for horizon, and
// tallies the stack when the round is a reference round.
func (p *paper) trial(r *runner, cfg harness.Config, seed uint64, proc osapi.Process, horizon sim.Duration, ref bool) error {
	var (
		m *machine.Node
		h *hafnium.Hypervisor
	)
	if cfg == harness.Native {
		var n *core.NativeNode
		err := r.call("core.build", func() (err error) {
			n, err = core.NewNativeNode(seed, kitten.Params{})
			return err
		})
		if err != nil {
			return err
		}
		err = r.call("core.attach", func() error {
			_, err := n.Kernel.Spawn(proc.Name(), 0, proc)
			return err
		})
		if err != nil {
			return err
		}
		r.run(n.Machine.Engine, func() { n.Run(horizon) })
		m = n.Machine
		r.hold(n)
	} else {
		sched := core.SchedulerKitten
		if cfg == harness.LinuxVM {
			sched = core.SchedulerLinux
		}
		var n *core.SecureNode
		err := r.call("core.build", func() (err error) {
			n, err = core.NewSecureNode(core.Options{Seed: seed, Manifest: paperManifest, Scheduler: sched})
			return err
		})
		if err != nil {
			return err
		}
		err = r.call("core.attach", func() error {
			guest := kitten.NewGuest(kitten.DefaultParams())
			guest.Attach(0, proc)
			return n.AttachGuest("job", guest)
		})
		if err != nil {
			return err
		}
		if err := r.call("core.boot", n.Boot); err != nil {
			return err
		}
		r.run(n.Machine.Engine, func() { n.Run(horizon) })
		m, h = n.Machine, n.Hyp
		r.hold(n)
	}
	if ref {
		c := countStack(m, h)
		p.counts.add(c, 1)
	}
	return nil
}

func (p *paper) finish(r *runner) {
	p.counts.report(r)
	slowdown := func(cfg harness.Config) float64 {
		logSum := 0.0
		for _, rate := range p.rates {
			logSum += math.Log(rate[harness.Native] / rate[cfg])
		}
		return math.Exp(logSum / float64(len(p.rates)))
	}
	r.set("paper.kitten_slowdown", slowdown(harness.KittenVM))
	r.set("paper.linux_slowdown", slowdown(harness.LinuxVM))
	r.set("paper.kitten_noise_pct", 100*p.stolen[harness.KittenVM]/float64(p.ref))
	r.set("paper.linux_noise_pct", 100*p.stolen[harness.LinuxVM]/float64(p.ref))
}

// finished reports a run that did not complete within its horizon.
func finished(ok bool, horizon sim.Duration) error {
	if ok {
		return nil
	}
	return fmt.Errorf("did not finish within %v", horizon)
}
