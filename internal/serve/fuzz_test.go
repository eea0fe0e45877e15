package serve

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"khsim/internal/hafnium"
	"khsim/internal/sim"
)

// FuzzPoolMessages sends one arbitrary payload to the primary's mailbox
// of a running pool, from the login VM (sender 0) or an environment VM
// (any other sender), atUS microseconds after the pool's first
// completion, and drains the pool. Whatever the payload — a well-formed
// or mangled frame, a stale or unissued job ID, job-control text — the
// simulator must not panic and the drained pool must pass Report.Check:
// no job admitted that was not generated, none completed that was not
// admitted. The drained pool must agree with hafnium on every
// environment, Ready or Busy exactly while its VM runs, whatever job
// control the login VM sent: the primary controls the environments. A
// payload from an environment VM must leave the login VM running: job
// control is the super-secondary's. The seed corpus is
// testdata/fuzz/FuzzPoolMessages; run the fuzzer with make fuzz.
func FuzzPoolMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, sender uint8, atUS uint16) {
		n, p, cfg := buildPool(t, 1, nil)
		if err := p.Start(cfg.Rates[0]); err != nil {
			t.Fatalf("Start: %v", err)
		}
		eng := n.Machine.Engine
		end := eng.Now().Add(cfg.Run + cfg.Drain)
		// After a completion, Check's "some job completed" holds whatever
		// the payload does: a job-control command may legitimately stop
		// the login VM or an environment.
		stepUntil(t, eng, end, "the first completion", func() bool { return p.completed > 0 })

		vc := p.login.VCPU(0)
		if sender != 0 {
			vc = p.envs[int(sender-1)%len(p.envs)].vm.VCPU(0)
		}
		window := end.Sub(eng.Now())
		sendAt(eng, vc, eng.Now().Add(sim.FromMicros(float64(atUS))%window), payload, cfg.RetryBackoff)
		n.Run(end.Sub(eng.Now()))

		rep := p.Report()
		if err := rep.Check(); err != nil {
			t.Fatalf("payload %q from sender %d at +%dus: %v\n%s", payload, sender, atUS, err, rep.Format())
		}
		if e := disagreeingEnv(p); e != nil {
			t.Fatalf("payload %q from sender %d at +%dus: pool holds %s %v, hafnium has it %v",
				payload, sender, atUS, e.Name, e.state, e.vm.State())
		}
		if sender != 0 && p.login.State() != hafnium.VMRunning {
			t.Fatalf("payload %q from environment sender %d at +%dus left the login VM %v",
				payload, sender, atUS, p.login.State())
		}
	})
}

// FuzzParseManifest parses arbitrary text as a serving manifest. It must
// not panic, and every manifest it accepts must keep the bounds the
// parser documents: a node plan hafnium accepts, whose super-secondary is
// the login VM and whose secondaries are the environments, at least one
// environment and one positive finite arrival rate, a warm pool no
// larger than the environments, positive durations, a non-negative
// crash mean and a long-job fraction in [0,1]. The seed corpus is every
// shipped manifest and the package's test manifest; run the fuzzer with
// make fuzz.
func FuzzParseManifest(f *testing.F) {
	f.Add(testManifest)
	paths, err := filepath.Glob("../../manifests/*.manifest")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no shipped manifests found (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseManifest(text)
		if err != nil {
			return
		}
		if err := manifestBounds(cfg); err != "" {
			t.Fatalf("accepted manifest breaks a bound: %s\n%s", err, text)
		}
	})
}

// manifestBounds names the first documented bound cfg breaks, or "".
func manifestBounds(cfg Config) string {
	plan, err := hafnium.ParseManifest(cfg.NodePlan)
	if err != nil {
		return "node plan rejected: " + err.Error()
	}
	var login string
	var envs []string
	for _, v := range plan.VMs {
		switch v.Class {
		case hafnium.SuperSecondary:
			login = v.Name
		case hafnium.Secondary:
			envs = append(envs, v.Name)
		}
	}
	switch {
	case cfg.LoginVM == "" || cfg.LoginVM != login:
		return "login VM is not the plan's super-secondary"
	case len(cfg.EnvVMs) == 0 || len(cfg.EnvVMs) != len(envs):
		return "environments are not the plan's secondaries"
	case len(cfg.Rates) == 0:
		return "no arrival rate"
	case cfg.WarmPool < 0 || cfg.WarmPool > len(cfg.EnvVMs):
		return "warm pool out of range"
	case cfg.CrashMean < 0:
		return "negative crash mean"
	case !(cfg.Mix.LongFrac >= 0 && cfg.Mix.LongFrac <= 1):
		return "long-job fraction outside [0,1]"
	}
	for i, name := range cfg.EnvVMs {
		if name != envs[i] {
			return "environments are not the plan's secondaries"
		}
	}
	for _, r := range cfg.Rates {
		if !(r > 0 && r <= math.MaxFloat64) {
			return "arrival rate not positive and finite"
		}
	}
	for name, d := range map[string]sim.Duration{
		"run": cfg.Run, "drain": cfg.Drain, "ttl": cfg.TTL, "retry": cfg.RetryBackoff,
		"short job": cfg.Mix.MeanShort, "long job": cfg.Mix.MeanLong,
	} {
		if d <= 0 {
			return name + " not positive"
		}
	}
	return ""
}
