package main

import (
	"flag"
	"fmt"
	"os"

	"khsim/internal/harness"
)

// experimentCmd implements `khsim NAME` for every experiment in
// harness.Experiments: run it at -seed, write its artifact to -artifact,
// print its report, and with -check exit non-zero unless its invariants
// hold. An experiment with a built-in manifest also takes -manifest.
func experimentCmd(e harness.Experiment, args []string) {
	fs := flag.NewFlagSet(e.Name, flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same artifact)")
	artifact := fs.String("artifact", "", "write the deterministic experiment artifact to FILE")
	check := fs.Bool("check", false, "exit non-zero unless the experiment's invariants hold")
	var manifestPath string
	if e.Manifest != "" {
		fs.StringVar(&manifestPath, "manifest", "", "manifest file (default: the built-in scenario)")
	}
	fs.Parse(args)

	manifest := e.Manifest
	if manifestPath != "" {
		b, err := os.ReadFile(manifestPath)
		if err != nil {
			fail(err)
		}
		manifest = string(b)
	}
	r, err := e.Run(*seed, manifest)
	if err != nil {
		fail(err)
	}
	if *artifact != "" {
		if err := os.WriteFile(*artifact, []byte(r.Artifact()), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Print(r.String())
	if *check {
		if err := r.Check(); err != nil {
			fail(err)
		}
	}
}

// obscheckCmd implements `khsim obscheck`, the observability gate at
// seed 1: it prints the Kitten STREAM metrics snapshot, validates the
// Perfetto export of a short selfish run, and prints every registered
// experiment's artifact once its Check passes. `make obscheck` runs it
// in two processes and compares their output byte for byte.
func obscheckCmd(args []string) {
	if len(args) > 0 {
		fail(fmt.Errorf("obscheck takes no arguments, got %q", args))
	}
	metricsCmd([]string{"-config", "kitten", "-bench", "stream", "-seed", "1"})
	traceCmd([]string{"-config", "kitten", "-bench", "selfish", "-seconds", "0.1", "-seed", "1", "-check", "-out", os.DevNull})
	for _, e := range harness.Experiments {
		r, err := e.Run(1, e.Manifest)
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.Name, err))
		}
		if err := r.Check(); err != nil {
			fail(fmt.Errorf("%s: %w", e.Name, err))
		}
		fmt.Printf("# experiment %s\n", e.Name)
		fmt.Print(r.Artifact())
	}
}
