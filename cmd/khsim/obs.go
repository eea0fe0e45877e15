package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"khsim/internal/harness"
	"khsim/internal/machine"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// metricsCmd implements `khsim metrics`: run one benchmark in one
// configuration and print the node's full metrics snapshot. Same seed,
// same snapshot, byte for byte.
func metricsCmd(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	cfgName := fs.String("config", "kitten", "configuration: native, kitten or linux")
	benchName := fs.String("bench", "randomaccess", "benchmark to run (or selfish)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	seconds := fs.Float64("seconds", 2, "selfish-detour spin seconds")
	format := fs.String("format", "text", "output format: text or json")
	fs.Parse(args)

	cfg, ok := harness.ParseConfig(*cfgName)
	if !ok {
		fail(fmt.Errorf("unknown config %q (try native|kitten|linux)", *cfgName))
	}

	node, err := runBench(cfg, *benchName, *seed, *seconds, false)
	if err != nil {
		fail(err)
	}
	snap := node.SnapshotMetrics()

	switch *format {
	case "text":
		fmt.Printf("# khsim metrics: config=%s bench=%s seed=%d\n", cfg, *benchName, *seed)
		if err := snap.WriteText(os.Stdout); err != nil {
			fail(err)
		}
	case "json":
		if err := snap.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown format %q (try text|json)", *format))
	}
}

// runBench runs one benchmark, a workload by name or selfish for seconds
// of spin work, in cfg, with execution spans on when spans is set, and
// returns the node the run left behind.
func runBench(cfg harness.Config, bench string, seed uint64, seconds float64, spans bool) (*machine.Node, error) {
	if bench == "selfish" {
		_, node, err := harness.RunSelfishNode(cfg, seed, sim.FromSeconds(seconds), spans)
		return node, err
	}
	spec, known := workload.ByName(bench)
	if !known {
		return nil, fmt.Errorf("unknown benchmark %q (try -bench hpcg|stream|randomaccess|nas-*|selfish)", bench)
	}
	_, node, err := harness.RunWorkloadNode(cfg, spec, seed, spans)
	return node, err
}

// traceCmd implements `khsim trace`: run one benchmark with execution
// spans enabled and export the node's trace as Chrome trace-event JSON
// (loadable in Perfetto) or TSV.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	cfgName := fs.String("config", "kitten", "configuration: native, kitten or linux")
	benchName := fs.String("bench", "selfish", "benchmark to run (or selfish)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	seconds := fs.Float64("seconds", 1, "selfish-detour spin seconds")
	format := fs.String("format", "perfetto", "output format: perfetto or tsv")
	out := fs.String("out", "", "output file (default stdout)")
	check := fs.Bool("check", false, "validate the Perfetto JSON before writing")
	fs.Parse(args)

	cfg, ok := harness.ParseConfig(*cfgName)
	if !ok {
		fail(fmt.Errorf("unknown config %q (try native|kitten|linux)", *cfgName))
	}

	node, err := runBench(cfg, *benchName, *seed, *seconds, true)
	if err != nil {
		fail(err)
	}
	trace := node.Trace

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			fail(ferr)
		}
		defer f.Close()
		w = f
	}

	switch *format {
	case "perfetto":
		var buf bytes.Buffer
		if err := trace.WritePerfetto(&buf); err != nil {
			fail(err)
		}
		if *check {
			if err := sim.ValidatePerfetto(buf.Bytes()); err != nil {
				fail(fmt.Errorf("perfetto validation: %w", err))
			}
			fmt.Fprintf(os.Stderr, "khsim trace: %d bytes of valid Perfetto JSON (config=%s bench=%s seed=%d)\n",
				buf.Len(), cfg, *benchName, *seed)
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			fail(err)
		}
	case "tsv":
		if err := trace.WriteTSV(w); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown format %q (try perfetto|tsv)", *format))
	}
}
