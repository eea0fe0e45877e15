package workload

// Calibrated benchmark specs.
//
// NativeRate values are fitted directly to the paper's Fig 8 / Fig 10
// "Native" column (Pine A64-LTS, Cortex-A53 @1.1 GHz): HPCG 0.0018
// GFlop/s, STREAM 59.6 MB/s, RandomAccess 6.5e-5 GUP/s, and NAS LU/BT/
// CG/EP/SP at 33.16/34.214/4.38/0.77/15.084 Mop/s. (The paper's absolute
// STREAM and GUPS magnitudes are far below the platform's raw capability
// — they are whatever the authors' builds measured — so we calibrate to
// the reported numbers rather than first-principles hardware limits; the
// experiments reproduce *relative* behaviour on top of them.)
//
// The sensitivity parameters are fitted as follows:
//
//   - RandomAccess S2Slowdown = 0.045: the paper's Kitten-scheduler
//     column shows 6.2e-5 vs native 6.5e-5 GUP/s (−4.6%); under a Kitten
//     primary almost all of that gap is steady-state nested-walk cost
//     because the 10 Hz primary adds <0.05% noise. Mechanistically: one
//     nested walk costs 4 × (1 + 4) + 4 = 24 descriptor fetches vs 4
//     single-stage (each of the four stage-1 descriptor fetches needs a
//     four-level stage-2 walk of its own, and the output IPA one more),
//     and with the A53's walk caches absorbing ~2/3 of them the extra
//     per-update cost lands at a few percent of the paper's (very slow)
//     per-update time.
//   - RandomAccess NoiseAmp = 6: each interruption thrashes the walk
//     caches and stage-2 TLB entries a nested-paging GUPS depends on, so
//     a stolen microsecond costs ~6. This reproduces the Linux column's
//     further −2.5% at the measured ~0.5% Linux stolen-time fraction.
//   - LU NoiseAmp = 7: LU's pipelined wavefront makes it the one NAS
//     kernel the paper saw degrade under Linux (33.16 → 32.06 Mop/s,
//     −3.3%); noise amplification through dependency stalls is the
//     standard explanation (Ferreira et al., SC'08). 7 × ~0.45% ≈ 3.2%.
//   - Jitter values reproduce the paper's reported standard deviations
//     (uniform half-width ≈ √3 × target stdev).
//
// All other kernels are cache-blocked or compute-bound: S2Slowdown ≈ 0
// and NoiseAmp = 1, matching the paper's flat Fig 7/9.

// Benchmark names used across the harness and cmd tools.
const (
	NameHPCG   = "hpcg"
	NameStream = "stream"
	NameGUPS   = "randomaccess"
	NameLU     = "nas-lu"
	NameBT     = "nas-bt"
	NameCG     = "nas-cg"
	NameEP     = "nas-ep"
	NameSP     = "nas-sp"
)

// trialSeconds sizes one trial; long enough to integrate over many
// primary ticks (10 Hz Kitten needs several periods), short enough to
// keep multi-trial sweeps fast.
const trialSeconds = 4.0

// HPCG returns the HPCG mini-app model (Fig 7/8).
func HPCG() Spec {
	const rate = 0.0018e9 // flops/s native
	return Spec{
		Name: NameHPCG, Units: "GFlops", UnitScale: 1e-9,
		NativeRate: rate,
		TotalOps:   rate * trialSeconds,
		PhaseOps:   rate * trialSeconds / 64,
		S2Slowdown: 0.000, // memory-bound but cache/TLB friendly (27-pt stencil)
		NoiseAmp:   1,
		Jitter:     0.029, // → stdev ≈ 3e-5 GFlops
	}
}

// Stream returns the STREAM triad model (Fig 7/8).
func Stream() Spec {
	const rate = 59.6e6 // bytes/s native
	return Spec{
		Name: NameStream, Units: "MB/s", UnitScale: 1e-6,
		NativeRate: rate,
		TotalOps:   rate * trialSeconds,
		PhaseOps:   rate * trialSeconds / 64,
		S2Slowdown: -0.006, // paper: virtualized runs measured ~0.5% *higher*; not significant
		NoiseAmp:   1,
		Jitter:     0.004, // → stdev ≈ 0.14 MB/s
	}
}

// GUPS returns the RandomAccess model (Fig 7/8) — the benchmark the
// paper singles out as most affected by Hafnium's nested translation.
func GUPS() Spec {
	const rate = 6.5e-5 * 1e9 // updates/s native
	return Spec{
		Name: NameGUPS, Units: "GUP/s", UnitScale: 1e-9,
		NativeRate: rate,
		TotalOps:   rate * trialSeconds,
		PhaseOps:   rate * trialSeconds / 64,
		S2Slowdown: 0.045,
		NoiseAmp:   6,
		Jitter:     0.0015,
	}
}

func nasSpec(name string, mops float64, noiseAmp float64) Spec {
	rate := mops * 1e6
	return Spec{
		Name: name, Units: "Mop/s", UnitScale: 1e-6,
		NativeRate: rate,
		TotalOps:   rate * trialSeconds,
		PhaseOps:   rate * trialSeconds / 64,
		S2Slowdown: 0,
		NoiseAmp:   noiseAmp,
		Jitter:     0.0015,
	}
}

// NASLU returns the NAS LU model (Fig 9/10): wavefront-pipelined SSOR,
// the one kernel sensitive to scheduler noise.
func NASLU() Spec { return nasSpec(NameLU, 33.16, 7) }

// NASBT returns the NAS BT model (Fig 9/10).
func NASBT() Spec { return nasSpec(NameBT, 34.214, 1) }

// NASCG returns the NAS CG model (Fig 9/10).
func NASCG() Spec { return nasSpec(NameCG, 4.38, 1) }

// NASEP returns the NAS EP model (Fig 9/10): embarrassingly parallel,
// compute-bound, immune to everything.
func NASEP() Spec { return nasSpec(NameEP, 0.77, 1) }

// NASSP returns the NAS SP model (Fig 9/10).
func NASSP() Spec { return nasSpec(NameSP, 15.084, 1) }

// All returns every paper benchmark in evaluation order.
func All() []Spec {
	return []Spec{HPCG(), Stream(), GUPS(), NASLU(), NASBT(), NASCG(), NASEP(), NASSP()}
}

// ByName looks up a spec.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
