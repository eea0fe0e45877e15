// Command bench is khsim's end-to-end benchmark. It runs one of four
// workloads (or all of them, one after another) from a single goroutine
// in one process, builds every simulated stack itself through the public
// functions of core, serve, hafnium, machine and harness, and times those
// calls from outside:
//
//	paper      the paper's §V evaluation: every workload spec natively,
//	           in a Kitten-primary VM and in a Linux-primary VM, plus the
//	           selfish-detour noise probe, on a fresh stack per trial
//	serve      the ephemeral-VM serving pool over a grid of arrival rates
//	           under both primary kernels
//	cluster    the 3-node and 8-node failover experiments and the live
//	           migration suite
//	isolation  Hafnium memory grants, reclaims and isolation checks on one
//	           stack, forked back to a warm snapshot every epoch
//
// Run it from the repository root (the module lives in its own directory,
// so it is built with its own go.mod):
//
//	bash bench/run.sh -workload serve -seed 1 -seconds 10 -trace 0
//
// A run repeats fixed units of work until -seconds have passed. The first
// units of each workload are its reference units: they always run, and
// the simulated metrics come from them alone, so those are exact for a
// given seed. Host metrics are medians over the run's units. With -trace 1
// the run spends its first half untraced and its second half recording
// the bench's own call spans and a CPU profile under -trace-dir, and the
// metrics it prints are the per-layer ones.
//
// Every metric is printed as "workload metric value unit"; the last line
// is one JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"paper", "serve", "cluster", "isolation"}

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	// tiny shrinks every workload to a sliver of its work; the smoke
	// tests use it.
	tiny bool
}

func main() {
	var (
		o     options
		name  string
		trace int
	)
	flag.StringVar(&name, "workload", "all", "workload to run: paper, serve, cluster, isolation or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every workload input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds one workload runs for")
	flag.IntVar(&trace, "trace", 0, "1 traces the second half of the run and prints the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_trace", "directory traced runs write into, one subdirectory per workload")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	// The simulator runs on one goroutine; a second P only runs the
	// garbage collector concurrently. On a shared 2-vCPU host that made
	// the same work swing between 87 and 157 ms from one second to the
	// next, against 71 to 97 ms on one P, so the benchmark uses one.
	runtime.GOMAXPROCS(1)
	names := workloadNames
	if name != "all" {
		names = []string{name}
	}
	for _, n := range names {
		if err := runWorkload(os.Stdout, n, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// runWorkload runs one workload and prints its metrics and result line.
func runWorkload(out io.Writer, name string, o options) error {
	w, err := newWorkload(name, o.tiny)
	if err != nil {
		return err
	}
	r := newRunner(name, out, o)
	if err := r.loop(w); err != nil {
		return err
	}
	w.finish(r)
	if err := r.hostMetrics(); err != nil {
		return err
	}
	return r.print()
}

func newWorkload(name string, tiny bool) (benchWorkload, error) {
	switch name {
	case "paper":
		return newPaper(tiny), nil
	case "serve":
		return newServe(tiny)
	case "cluster":
		return newClusterWork(tiny)
	case "isolation":
		return newIsolation(tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, serve, cluster, isolation or all)", name)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
