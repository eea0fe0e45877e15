package serve

import (
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
