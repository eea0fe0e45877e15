// Package workload provides calibrated performance models of the paper's
// benchmarks, executed *inside* the simulated node so that OS noise,
// world switches and two-stage translation perturb them exactly as the
// paper's hardware did.
//
// Each Spec carries a native-calibrated execution rate plus two fitted
// sensitivity parameters (see calibrate.go for the derivations):
//
//   - S2Slowdown: the steady-state rate loss under two-stage (nested)
//     translation. Dominated by nested page walks, so it is ~4–5% for the
//     TLB-hostile RandomAccess and ~0 for cache-friendly kernels.
//   - NoiseAmp: how much one second of stolen CPU time actually costs the
//     application. 1 means noise only costs its own duration; >1 models
//     post-interruption micro-architectural refill (walk-cache and TLB
//     thrash for RandomAccess) and dependency stalls (LU's wavefront).
//
// A workload is an osapi.Process: the same model runs on native Kitten,
// in a secondary VM under a Kitten primary, and under a Linux primary.
package workload

import (
	"fmt"

	"khsim/internal/machine"
	"khsim/internal/osapi"
	"khsim/internal/sim"
)

// Spec describes one benchmark's performance model.
type Spec struct {
	Name  string
	Units string
	// UnitScale converts ops/second into the paper's reporting units
	// (e.g. 1e-9 for GUP/s and GFlop/s, 1e-6 for Mop/s and MB/s).
	UnitScale float64
	// NativeRate is the calibrated ops/second on the native Pine A64
	// configuration (ops are updates, bytes, or flops per Units).
	NativeRate float64
	// TotalOps sizes one trial.
	TotalOps float64
	// PhaseOps is the work per scheduling-visible phase.
	PhaseOps float64
	// S2Slowdown is the fractional rate loss under two-stage translation.
	S2Slowdown float64
	// NoiseAmp amplifies stolen time into application-visible cost.
	NoiseAmp float64
	// Jitter is the half-width of the uniform per-trial rate variation
	// (run-to-run measurement noise).
	Jitter float64
}

// Env is the execution environment the harness derives from the node
// configuration.
type Env struct {
	// TwoStage is true when the workload runs inside a Hafnium VM.
	TwoStage bool
	// RNG drives the per-trial jitter; derive per-trial from the node
	// seed for reproducibility.
	RNG *sim.RNG
}

// Result is one trial's outcome.
type Result struct {
	Name     string
	Units    string
	Elapsed  sim.Duration
	Stolen   sim.Duration // wall time lost to preemptions
	Extra    sim.Duration // amplified micro-architectural cost added
	Preempts int
	Rate     float64 // in Units
	Finished bool
}

// String renders the result as one report line: the name, the rate in
// its units, the elapsed and stolen time, the amplified extra cost and
// the preemption count.
func (r Result) String() string {
	return fmt.Sprintf("%-12s %10.6g %-7s elapsed=%v stolen=%v(+%v) preempts=%d",
		r.Name, r.Rate, r.Units, r.Elapsed, r.Stolen, r.Extra, r.Preempts)
}

// Run executes a Spec in an Env; it implements osapi.Process.
type Run struct {
	Spec Spec
	Env  Env

	Result  Result
	startAt sim.Time
	// left and rate live on the struct (not as Main-locals captured by the
	// phase closure) so a node snapshot can capture and restore mid-run
	// progress; rate in particular is drawn from the jitter RNG once per
	// trial and must survive a restore without a redraw.
	left float64
	rate float64
}

// New builds a runnable workload.
func New(spec Spec, env Env) *Run {
	if env.RNG == nil {
		env.RNG = sim.NewRNG(1)
	}
	return &Run{Spec: spec, Env: env}
}

// Name implements osapi.Process.
func (r *Run) Name() string { return r.Spec.Name }

// effectiveRate applies the translation regime and the per-trial jitter.
func (r *Run) effectiveRate() float64 {
	rate := r.Spec.NativeRate
	if r.Env.TwoStage {
		rate *= 1 - r.Spec.S2Slowdown
	}
	if r.Spec.Jitter > 0 {
		rate *= 1 + r.Spec.Jitter*(2*r.Env.RNG.Float64()-1)
	}
	return rate
}

// Main implements osapi.Process: run TotalOps in PhaseOps chunks,
// charging amplified noise costs as they occur.
func (r *Run) Main(x osapi.Executor) {
	r.startAt = x.Now()
	r.Result = Result{Name: r.Spec.Name, Units: r.Spec.Units}
	r.rate = r.effectiveRate()
	r.left = r.Spec.TotalOps
	phase := r.Spec.PhaseOps
	if phase <= 0 || phase > r.left {
		phase = r.left
	}
	amp := r.Spec.NoiseAmp
	if amp < 1 {
		amp = 1
	}
	// One activity serves every phase: a phase always completes before the
	// next Run, so reusing it keeps the phase loop allocation-free even
	// for fine-grained PhaseOps.
	a := &machine.Activity{Label: "wl." + r.Spec.Name}
	a.OnPreempt = func(at sim.Time) { r.Result.Preempts++ }
	a.OnResume = func(at sim.Time, stolen sim.Duration) {
		r.Result.Stolen += stolen
		if amp > 1 {
			extra := sim.Duration(float64(stolen) * (amp - 1))
			a.Remaining += extra
			r.Result.Extra += extra
		}
	}
	var runPhase func()
	runPhase = func() {
		if r.left <= 0 {
			r.Result.Elapsed = x.Now().Sub(r.startAt)
			r.Result.Finished = true
			if s := r.Result.Elapsed.Seconds(); s > 0 {
				r.Result.Rate = r.Spec.TotalOps / s * r.Spec.UnitScale
			}
			x.Done()
			return
		}
		ops := phase
		if ops > r.left {
			ops = r.left
		}
		r.left -= ops
		a.Remaining = sim.FromSeconds(ops / r.rate)
		x.Run(a)
	}
	a.OnComplete = runPhase
	runPhase()
}
