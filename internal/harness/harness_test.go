package harness

import (
	"strings"
	"testing"

	"khsim/internal/noise"
	"khsim/internal/sim"
	"khsim/internal/stats"
	"khsim/internal/workload"
)

func TestConfigStrings(t *testing.T) {
	if Native.String() != "native" || KittenVM.String() != "kitten" || LinuxVM.String() != "linux" {
		t.Fatal("config names wrong")
	}
	if Native.TwoStage() || !KittenVM.TwoStage() || !LinuxVM.TwoStage() {
		t.Fatal("TwoStage wrong")
	}
	if Config(9).String() == "" {
		t.Fatal("unknown config string empty")
	}
}

// TestFig4NativeNoiseProfile: native Kitten shows only sparse, tiny
// timer-tick detours — "a constrained noise profile with only a small
// number of pauses due to timer ticks".
func TestFig4NativeNoiseProfile(t *testing.T) {
	r, err := RunSelfish(Native, 42, sim.FromSeconds(5))
	if err != nil {
		t.Fatal(err)
	}
	rate := r.RatePerSecond()
	if rate < 8 || rate > 12 {
		t.Fatalf("native detour rate = %v/s, want ~10 (tick rate)", rate)
	}
	ds := r.DurationsMicros()
	if ds.Mean() > 5 {
		t.Fatalf("native mean detour = %vus, want a few us", ds.Mean())
	}
	if r.StolenFraction() > 0.0002 {
		t.Fatalf("native stolen fraction = %v", r.StolenFraction())
	}
}

// TestFig5KittenVMNoiseProfile: the Kitten-scheduled VM adds "little to
// no change ... The only difference is a slight increase in detour
// latencies when they do occur."
func TestFig5KittenVMNoiseProfile(t *testing.T) {
	native, err := RunSelfish(Native, 42, sim.FromSeconds(5))
	if err != nil {
		t.Fatal(err)
	}
	vm, err := RunSelfish(KittenVM, 42, sim.FromSeconds(5))
	if err != nil {
		t.Fatal(err)
	}
	// Similar event rate (both driven by 10 Hz ticks; the VM sees its own
	// guest tick plus the primary's).
	if vm.RatePerSecond() > 3*native.RatePerSecond() {
		t.Fatalf("kitten VM rate %v vs native %v: not 'little change'",
			vm.RatePerSecond(), native.RatePerSecond())
	}
	// Larger individual detours (world-switch round trip).
	if vm.DurationsMicros().Mean() <= native.DurationsMicros().Mean() {
		t.Fatal("kitten VM detours not larger than native")
	}
	// Still a quiet system overall.
	if vm.StolenFraction() > 0.001 {
		t.Fatalf("kitten VM stolen fraction = %v", vm.StolenFraction())
	}
}

// TestFig6LinuxVMNoiseProfile: with Linux scheduling, "noise events are
// more frequent and more randomly distributed".
func TestFig6LinuxVMNoiseProfile(t *testing.T) {
	kvm, err := RunSelfish(KittenVM, 42, sim.FromSeconds(5))
	if err != nil {
		t.Fatal(err)
	}
	lvm, err := RunSelfish(LinuxVM, 42, sim.FromSeconds(5))
	if err != nil {
		t.Fatal(err)
	}
	if lvm.RatePerSecond() < 10*kvm.RatePerSecond() {
		t.Fatalf("linux rate %v/s not ≫ kitten %v/s", lvm.RatePerSecond(), kvm.RatePerSecond())
	}
	if lvm.StolenTotal() < 10*kvm.StolenTotal() {
		t.Fatalf("linux stolen %v not ≫ kitten %v", lvm.StolenTotal(), kvm.StolenTotal())
	}
	// "More randomly distributed": against the metronomic native tick,
	// Linux's kthread wakeups arrive at exponential times, so inter-detour
	// gaps vary; and detour *durations* spread far more than Kitten's two
	// fixed event types (guest tick, world-switch round trip).
	native, err := RunSelfish(Native, 42, sim.FromSeconds(5))
	if err != nil {
		t.Fatal(err)
	}
	nGaps := interDetourGaps(native)
	lGaps := interDetourGaps(lvm)
	if lGaps.CoV() < 3*nGaps.CoV() {
		t.Fatalf("linux gap CoV %v not ≫ native %v (not 'more randomly distributed')",
			lGaps.CoV(), nGaps.CoV())
	}
	kMax, kOK := kvm.DurationsMicros().Max()
	lMax, lOK := lvm.DurationsMicros().Max()
	if !kOK || !lOK {
		t.Fatal("expected non-empty detour samples")
	}
	kSpread := kMax / kvm.DurationsMicros().Mean()
	lSpread := lMax / lvm.DurationsMicros().Mean()
	if lSpread < 3*kSpread {
		t.Fatalf("linux duration spread %v not ≫ kitten %v", lSpread, kSpread)
	}
	// Max detours are an order of magnitude above Kitten's.
	if lMax < 5*kMax {
		t.Fatalf("linux max detour %vus vs kitten %vus", lMax, kMax)
	}
}

func interDetourGaps(r *noise.SelfishResult) *stats.Sample {
	var s stats.Sample
	for i := 1; i < len(r.Detours); i++ {
		s.Add(r.Detours[i].At.Sub(r.Detours[i-1].At).Micros())
	}
	return &s
}

func TestFTQQuieterUnderKitten(t *testing.T) {
	kf, err := RunFTQ(KittenVM, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := RunFTQ(LinuxVM, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	if lf.CoV() <= kf.CoV() {
		t.Fatalf("linux FTQ CoV %v not above kitten %v", lf.CoV(), kf.CoV())
	}
}

// TestFig8RandomAccessOrdering: Native > Kitten > Linux, with the
// paper's magnitudes (6.5e-5 / 6.2e-5 / 6.04e-5 GUP/s).
func TestFig8RandomAccessOrdering(t *testing.T) {
	res := map[Config]float64{}
	for _, cfg := range Configs {
		r, err := RunWorkload(cfg, workload.GUPS(), 3)
		if err != nil {
			t.Fatal(err)
		}
		res[cfg] = r.Rate
	}
	if !(res[Native] > res[KittenVM] && res[KittenVM] > res[LinuxVM]) {
		t.Fatalf("GUPS ordering broken: %v", res)
	}
	within := func(got, want, tol float64) bool {
		return got > want*(1-tol) && got < want*(1+tol)
	}
	if !within(res[Native], 6.5e-5, 0.02) {
		t.Fatalf("native GUPS %v, want ≈6.5e-5", res[Native])
	}
	if !within(res[KittenVM], 6.2e-5, 0.02) {
		t.Fatalf("kitten GUPS %v, want ≈6.2e-5", res[KittenVM])
	}
	if !within(res[LinuxVM], 6.04e-5, 0.02) {
		t.Fatalf("linux GUPS %v, want ≈6.04e-5", res[LinuxVM])
	}
}

// TestFig8StreamAndHPCGFlat: "the mean performance of each configuration
// falls within the standard deviation, so the performance differences
// are not statistically significant".
func TestFig8StreamAndHPCGFlat(t *testing.T) {
	for _, spec := range []workload.Spec{workload.Stream(), workload.HPCG()} {
		sums := map[Config]stats.Summary{}
		for _, cfg := range Configs {
			s, err := Trials(cfg, spec, 5, 11)
			if err != nil {
				t.Fatal(err)
			}
			sums[cfg] = s.Summarize()
		}
		for _, cfg := range []Config{KittenVM, LinuxVM} {
			base := sums[Native]
			got := sums[cfg]
			if d := got.Mean/base.Mean - 1; d > 0.03 || d < -0.03 {
				t.Fatalf("%s under %v deviates %.2f%% from native", spec.Name, cfg, 100*d)
			}
		}
	}
}

// TestFig10NASShape: all five NAS kernels flat except a small LU drop
// under the Linux scheduler.
func TestFig10NASShape(t *testing.T) {
	specs := []workload.Spec{workload.NASLU(), workload.NASBT(), workload.NASCG(), workload.NASEP(), workload.NASSP()}
	for _, spec := range specs {
		rates := map[Config]float64{}
		for _, cfg := range Configs {
			r, err := RunWorkload(cfg, spec, 5)
			if err != nil {
				t.Fatal(err)
			}
			rates[cfg] = r.Rate
		}
		kittenDrop := 1 - rates[KittenVM]/rates[Native]
		linuxDrop := 1 - rates[LinuxVM]/rates[Native]
		if kittenDrop > 0.01 || kittenDrop < -0.01 {
			t.Fatalf("%s kitten drop %.3f%%, want ~0", spec.Name, 100*kittenDrop)
		}
		if spec.Name == workload.NameLU {
			if linuxDrop < 0.02 || linuxDrop > 0.05 {
				t.Fatalf("LU linux drop %.2f%%, want ~3.3%%", 100*linuxDrop)
			}
		} else if linuxDrop > 0.012 || linuxDrop < -0.012 {
			t.Fatalf("%s linux drop %.3f%%, want flat", spec.Name, 100*linuxDrop)
		}
	}
}

func TestTablesAndFormatting(t *testing.T) {
	tab, err := runBenchTable("probe", []workload.Spec{workload.NASEP()}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Format()
	if !strings.Contains(out, "nas-ep") || !strings.Contains(out, "Mop/s") {
		t.Fatalf("table format:\n%s", out)
	}
	norm := tab.FormatNormalized()
	if !strings.Contains(norm, "normalized") {
		t.Fatalf("normalized format:\n%s", norm)
	}
	n := tab.Normalized(workload.NameEP)
	if n[Native] != 1 {
		t.Fatalf("native normalization = %v", n[Native])
	}
	if tab.Get(workload.NameEP, Native).N != 2 {
		t.Fatal("cell stats lost")
	}
}

func TestSelfishExperimentAndFormat(t *testing.T) {
	res, _, err := SelfishExperiment(5, sim.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("configs = %d", len(res))
	}
	out := FormatSelfish(res)
	for _, want := range []string{"native", "kitten", "linux", "detours"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// TSV output round-trip sanity.
	var sb strings.Builder
	if err := res[LinuxVM].WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "time_s\tdetour_us") {
		t.Fatal("TSV header missing")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := RunWorkload(LinuxVM, workload.GUPS(), 17)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(LinuxVM, workload.GUPS(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rate != b.Rate || a.Elapsed != b.Elapsed || a.Preempts != b.Preempts {
		t.Fatalf("same-seed runs differ: %v vs %v", a, b)
	}
	c, err := RunWorkload(LinuxVM, workload.GUPS(), 18)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed == c.Elapsed && a.Stolen == c.Stolen {
		t.Fatal("different seeds produced identical noise")
	}
}
