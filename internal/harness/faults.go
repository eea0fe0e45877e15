package harness

import (
	"fmt"
	"strings"

	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/hafnium"
	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/sim"
)

// faultManifest is the partition plan for the containment experiment: the
// Kitten primary, plus a sacrificial victim VM with a restart budget.
const faultManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm victim]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 16
restart_backoff_us = 200
`

// FaultReport is the outcome of one containment experiment: the primary's
// selfish-detour profile with and without fault injection on the sibling
// partition, plus what happened to the victim.
type FaultReport struct {
	Baseline *noise.SelfishResult // primary's noise, no faults
	Faulted  *noise.SelfishResult // primary's noise, victim under fire

	VictimState    string
	VictimRestarts int
	CrashReason    string
	Hyp            hafnium.Stats
	Injected       faults.Stats
	Trace          []faults.Record
}

// Check enforces the experiment's headline property: the primary's
// noise profile is unchanged, detour by detour, by the sibling's crashes
// and recoveries. An empty quiet profile or a victim that never crashed
// would make that comparison vacuous, so both fail too.
func (r *FaultReport) Check() error {
	if r.Baseline.Count() == 0 {
		return fmt.Errorf("containment: the quiet primary recorded no detours; spin longer than one primary tick")
	}
	if r.Hyp.Aborts == 0 {
		return fmt.Errorf("containment: no crash landed on the victim")
	}
	if r.Baseline.Count() != r.Faulted.Count() {
		return fmt.Errorf("containment: %d detours quiet vs %d faulted", r.Baseline.Count(), r.Faulted.Count())
	}
	for i, d := range r.Baseline.Detours {
		if f := r.Faulted.Detours[i]; f != d {
			return fmt.Errorf("containment: detour %d differs: quiet %+v, faulted %+v", i, d, f)
		}
	}
	return nil
}

// Artifact renders the report and the injection trace for byte
// comparison across processes.
func (r *FaultReport) Artifact() string {
	var b strings.Builder
	b.WriteString(r.String())
	b.WriteString("--- injections ---\n")
	for _, rec := range r.Trace {
		b.WriteString(rec.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the experiment report.
func (r *FaultReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault containment: primary selfish-detour noise with a faulted sibling\n")
	fmt.Fprintf(&b, "  %s\n", r.Baseline.Summary())
	fmt.Fprintf(&b, "  %s\n", r.Faulted.Summary())
	fmt.Fprintf(&b, "  injected: %d faults (crashes landed: %d, restarts: %d, quarantines: %d, pages scrubbed: %d)\n",
		r.Injected.Injected, r.Hyp.Aborts, r.Hyp.Restarts, r.Hyp.Quarantines, r.Hyp.ScrubbedPages)
	fmt.Fprintf(&b, "  victim: %s after %d restarts (last crash: %s)\n",
		r.VictimState, r.VictimRestarts, r.CrashReason)
	if err := r.Check(); err != nil {
		fmt.Fprintf(&b, "  NOT contained: %v\n", err)
	} else {
		fmt.Fprintf(&b, "  contained: primary detour count identical (%d)\n", r.Baseline.Count())
	}
	return b.String()
}

// containmentRules is the fault load aimed exclusively at the victim VM
// and its core: crashes, stray and corrupted interrupts, TLB wipes, rogue
// hypercalls. Nothing targets core 0 or the primary.
func containmentRules(runTime sim.Duration) []faults.Rule {
	return []faults.Rule{
		{Kind: faults.VCPUCrash, Target: "victim", Mean: runTime / 8, Count: 4},
		{Kind: faults.SpuriousIRQ, Core: 1, Mean: runTime / 16},
		{Kind: faults.IRQStorm, Core: 1, Mean: runTime / 4, Burst: 4},
		{Kind: faults.TLBCorrupt, Core: 1, Mean: runTime / 8},
		{Kind: faults.RogueHypercall, Target: "victim", Mean: runTime / 8},
		{Kind: faults.TimerDrift, Target: "victim", Mean: runTime / 8},
	}
}

// runContainmentSide boots the two-VM system, runs a selfish-detour spin
// of runTime on primary core 0 with a victim spin pinned to core 1, and —
// when inject is set — fires the containment fault load at the victim.
func runContainmentSide(seed uint64, runTime sim.Duration, inject bool) (*noise.SelfishResult, *core.SecureNode, *faults.Injector, error) {
	n, err := core.NewSecureNode(core.Options{
		Seed:      seed,
		Manifest:  faultManifest,
		Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// The victim spins for longer than the experiment so its core stays
	// busy (and crash/restart cycles always have work to kill).
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, noise.NewSelfish("victim", runTime*4))
	if err := n.AttachGuest("victim", guest, 1); err != nil {
		return nil, nil, nil, err
	}
	s := noise.NewSelfish("primary/"+map[bool]string{false: "quiet", true: "faulted"}[inject], runTime)
	if _, err := n.KittenPrimary.Spawn(s.Name(), 0, s); err != nil {
		return nil, nil, nil, err
	}
	if err := n.Boot(); err != nil {
		return nil, nil, nil, err
	}
	horizon := runTime*2 + sim.FromSeconds(1)
	var in *faults.Injector
	if inject {
		in, err = faults.New(n.Machine, n.Hyp, seed, containmentRules(runTime))
		if err != nil {
			return nil, nil, nil, err
		}
		if err := in.Start(n.Machine.Now().Add(horizon)); err != nil {
			return nil, nil, nil, err
		}
	}
	n.Run(horizon)
	if !s.Result.Finished {
		return nil, nil, nil, fmt.Errorf("harness: primary selfish run did not finish within %v", horizon)
	}
	return &s.Result, n, in, nil
}

// RunFaultContainment runs the paper-style containment experiment: the
// primary's selfish-detour noise must be bit-identical whether or not the
// sibling partition is being crashed, stormed, and corrupted — Hafnium
// confines every fault to the offending VM and its core.
func RunFaultContainment(seed uint64, runTime sim.Duration) (*FaultReport, error) {
	baseline, _, _, err := runContainmentSide(seed, runTime, false)
	if err != nil {
		return nil, err
	}
	faulted, n, in, err := runContainmentSide(seed, runTime, true)
	if err != nil {
		return nil, err
	}
	victim, _ := n.Hyp.VMByName("victim")
	return &FaultReport{
		Baseline:       baseline,
		Faulted:        faulted,
		VictimState:    victim.State().String(),
		VictimRestarts: victim.Restarts(),
		CrashReason:    victim.CrashReason(),
		Hyp:            n.Hyp.Stats(),
		Injected:       in.Stats(),
		Trace:          in.Trace(),
	}, nil
}
