// Command paperbench regenerates every table and figure of the paper's
// evaluation section (§V) and prints them in the paper's layout: raw
// means with standard deviations (Figs 8 and 10) and series normalized
// to the native configuration (Figs 7 and 9), plus the selfish-detour
// summaries (Figs 4–6).
//
// Usage:
//
//	paperbench [-experiment fig4-6|fig7|fig8|fig9|fig10|all] [-trials N] [-seed S] [-sidecar DIR]
//
// With -sidecar DIR, every figure gets a metrics sidecar file in DIR
// (e.g. fig7-8.stream.kitten.metrics): the node's full observability
// snapshot from the first trial of the cell, in `khsim metrics` text
// format.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"khsim/internal/harness"
	"khsim/internal/metrics"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "fig4-6, fig7, fig8, fig9, fig10, extensions or all")
	trials := flag.Int("trials", 10, "trials per cell")
	seed := flag.Uint64("seed", 1, "simulation seed")
	seconds := flag.Float64("seconds", 30, "selfish-detour spin seconds")
	sidecar := flag.String("sidecar", "", "directory for per-figure metrics sidecar files (empty: none)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	if *sidecar != "" {
		if err := os.MkdirAll(*sidecar, 0o755); err != nil {
			fail(err)
		}
	}
	// writeSidecar stores one snapshot next to the figure it accompanies,
	// e.g. fig7-8.stream.kitten.metrics.
	writeSidecar := func(name string, snap *metrics.Snapshot) {
		if *sidecar == "" || snap == nil {
			return
		}
		f, err := os.Create(filepath.Join(*sidecar, name+".metrics"))
		if err != nil {
			fail(err)
		}
		if err := snap.WriteText(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	writeTableSidecars := func(prefix string, tab *harness.Table) {
		for _, bench := range tab.Benches {
			for _, cfg := range harness.Configs {
				writeSidecar(fmt.Sprintf("%s.%s.%s", prefix, bench, cfg), tab.Sidecars[bench][cfg])
			}
		}
	}
	wantSelfish := *experiment == "all" || *experiment == "fig4-6"
	wantMicro := *experiment == "all" || *experiment == "fig7" || *experiment == "fig8"
	wantNAS := *experiment == "all" || *experiment == "fig9" || *experiment == "fig10"
	wantExt := *experiment == "all" || *experiment == "extensions"
	if !wantSelfish && !wantMicro && !wantNAS && !wantExt {
		fail(fmt.Errorf("unknown experiment %q", *experiment))
	}

	if wantSelfish {
		res, snaps, err := harness.SelfishExperiment(*seed, sim.FromSeconds(*seconds))
		if err != nil {
			fail(err)
		}
		for _, cfg := range harness.Configs {
			writeSidecar(fmt.Sprintf("fig4-6.%s", cfg), snaps[cfg])
		}
		fmt.Print(harness.FormatSelfish(res))
		fmt.Println()
	}
	if wantMicro {
		tab, err := harness.MicroExperiment(*trials, *seed)
		if err != nil {
			fail(err)
		}
		writeTableSidecars("fig7-8", tab)
		if *experiment != "fig8" {
			fmt.Print(tab.FormatNormalized()) // Fig 7
			fmt.Println()
		}
		if *experiment != "fig7" {
			fmt.Print(tab.Format()) // Fig 8
			fmt.Println()
		}
	}
	if wantNAS {
		tab, err := harness.NASExperiment(*trials, *seed)
		if err != nil {
			fail(err)
		}
		writeTableSidecars("fig9-10", tab)
		if *experiment != "fig10" {
			fmt.Print(tab.FormatNormalized()) // Fig 9
			fmt.Println()
		}
		if *experiment != "fig9" {
			fmt.Print(tab.Format()) // Fig 10
			fmt.Println()
		}
	}
	if wantExt {
		fmt.Println("Extensions (paper §VII future work)")
		spec := workload.NASEP()
		for _, vcpus := range []int{1, 2, 4} {
			agg, speedup, err := harness.RunParallelWorkload(harness.KittenVM, spec, vcpus, *seed)
			if err != nil {
				fail(err)
			}
			fmt.Printf("  parallel %d vcpu: %8.4f %s  speedup %.3f\n",
				vcpus, agg.Rate, agg.Units, speedup)
		}
		for _, c := range []struct {
			cfg      harness.Config
			sameCore bool
			label    string
		}{
			{harness.KittenVM, false, "kitten, hog on another core"},
			{harness.KittenVM, true, "kitten, hog sharing the core"},
			{harness.LinuxVM, false, "linux,  hog on another core"},
			{harness.LinuxVM, true, "linux,  hog sharing the core"},
		} {
			res, err := harness.RunInterference(c.cfg, spec, *seed, c.sameCore)
			if err != nil {
				fail(err)
			}
			fmt.Printf("  interference (%s): slowdown %.3f\n", c.label, res.Slowdown())
		}
		for _, rate := range []sim.Hertz{0, 100, 1000, 5000} {
			res, err := harness.RunDeviceNoise(harness.KittenVM, spec, rate, *seed)
			if err != nil {
				fail(err)
			}
			fmt.Printf("  device IRQs @%5.0f Hz: stolen %.4f%%  (%d IRQs forwarded)\n",
				float64(rate), 100*float64(res.Result.Stolen)/float64(res.Result.Elapsed), res.IRQsRaised)
		}
	}
}
