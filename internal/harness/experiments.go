package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"khsim/internal/metrics"
	"khsim/internal/noise"
	"khsim/internal/sim"
	"khsim/internal/stats"
	"khsim/internal/workload"
)

// Cell is one (benchmark, configuration) measurement.
type Cell struct {
	Bench  string
	Config Config
	Stats  stats.Summary
}

// Table is a benchmark × configuration result matrix.
type Table struct {
	Title   string
	Benches []string
	Units   map[string]string
	Cells   map[string]map[Config]stats.Summary
	// Sidecars holds one metrics snapshot per cell, taken from the first
	// trial of each (benchmark, configuration) pair. paperbench writes
	// them next to the figures they accompany.
	Sidecars map[string]map[Config]*metrics.Snapshot
}

func newTable(title string) *Table {
	return &Table{
		Title:    title,
		Units:    map[string]string{},
		Cells:    map[string]map[Config]stats.Summary{},
		Sidecars: map[string]map[Config]*metrics.Snapshot{},
	}
}

func (t *Table) sidecar(bench string, cfg Config, snap *metrics.Snapshot) {
	if snap == nil {
		return
	}
	if t.Sidecars[bench] == nil {
		t.Sidecars[bench] = map[Config]*metrics.Snapshot{}
	}
	t.Sidecars[bench][cfg] = snap
}

func (t *Table) add(bench, units string, cfg Config, s stats.Summary) {
	if t.Cells[bench] == nil {
		t.Cells[bench] = map[Config]stats.Summary{}
		t.Benches = append(t.Benches, bench)
		t.Units[bench] = units
	}
	t.Cells[bench][cfg] = s
}

// Get returns the summary for one cell.
func (t *Table) Get(bench string, cfg Config) stats.Summary {
	return t.Cells[bench][cfg]
}

// Normalized returns each configuration's mean divided by Native's —
// the paper's Fig 7 / Fig 9 presentation.
func (t *Table) Normalized(bench string) map[Config]float64 {
	out := map[Config]float64{}
	base := t.Cells[bench][Native].Mean
	for _, cfg := range Configs {
		if base != 0 {
			out[cfg] = t.Cells[bench][cfg].Mean / base
		}
	}
	return out
}

// Format renders the raw-values table (Fig 8 / Fig 10 style).
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	fmt.Fprintf(&sb, "%-14s %-8s", "benchmark", "units")
	for _, cfg := range Configs {
		fmt.Fprintf(&sb, " %14s %12s", cfg.String()+"-mean", "stdev")
	}
	sb.WriteByte('\n')
	for _, b := range t.Benches {
		fmt.Fprintf(&sb, "%-14s %-8s", b, t.Units[b])
		for _, cfg := range Configs {
			s := t.Cells[b][cfg]
			fmt.Fprintf(&sb, " %14.6g %12.3g", s.Mean, s.Stdev)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatNormalized renders the normalized series (Fig 7 / Fig 9 style).
func (t *Table) FormatNormalized() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (normalized to native)\n", t.Title)
	fmt.Fprintf(&sb, "%-14s", "benchmark")
	for _, cfg := range Configs {
		fmt.Fprintf(&sb, " %10s", cfg)
	}
	sb.WriteByte('\n')
	for _, b := range t.Benches {
		fmt.Fprintf(&sb, "%-14s", b)
		norm := t.Normalized(b)
		for _, cfg := range Configs {
			fmt.Fprintf(&sb, " %10.4f", norm[cfg])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SelfishExperiment reproduces Figures 4–6: one selfish-detour trace per
// configuration, with each run's end-of-run metrics snapshot for the
// paperbench sidecar files.
func SelfishExperiment(seed uint64, runTime sim.Duration) (map[Config]*noise.SelfishResult, map[Config]*metrics.Snapshot, error) {
	out := map[Config]*noise.SelfishResult{}
	snaps := map[Config]*metrics.Snapshot{}
	for _, cfg := range Configs {
		r, node, err := RunSelfishNode(cfg, seed, runTime, false)
		if err != nil {
			return nil, nil, err
		}
		out[cfg] = r
		snaps[cfg] = node.SnapshotMetrics()
	}
	return out, snaps, nil
}

// MicroExperiment reproduces Figures 7 and 8: HPCG, STREAM and
// RandomAccess across the three configurations.
func MicroExperiment(trials int, seed uint64) (*Table, error) {
	return runBenchTable("HPCG / STREAM / RandomAccess (Fig 7/8)",
		[]workload.Spec{workload.HPCG(), workload.Stream(), workload.GUPS()}, trials, seed)
}

// NASExperiment reproduces Figures 9 and 10: the NAS subset.
func NASExperiment(trials int, seed uint64) (*Table, error) {
	return runBenchTable("NAS LU / BT / CG / EP / SP (Fig 9/10)",
		[]workload.Spec{workload.NASLU(), workload.NASBT(), workload.NASCG(), workload.NASEP(), workload.NASSP()},
		trials, seed)
}

// runBenchTable fans the independent (spec, config, trial) simulations
// across goroutines: each trial builds its own engine and nodes, so runs
// share no state, and the per-trial seeds come from the shared
// sim.SeedStream so a parallel sweep draws exactly the seeds the
// sequential order would. Results are reduced in deterministic
// (spec, config, trial) order, making the output bit-identical to a
// sequential run regardless of completion order.
func runBenchTable(title string, specs []workload.Spec, trials int, seed uint64) (*Table, error) {
	return runBenchTableWith(title, specs, trials, seed, runtime.GOMAXPROCS(0))
}

func runBenchTableWith(title string, specs []workload.Spec, trials int, seed uint64, workers int) (*Table, error) {
	type result struct {
		rate float64
		snap *metrics.Snapshot
		err  error
	}
	stream := sim.NewSeedStream(seed)
	n := len(specs) * len(Configs) * trials
	results := make([]result, n)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				si := idx / (len(Configs) * trials)
				ci := (idx / trials) % len(Configs)
				ti := idx % trials
				res, node, err := RunWorkloadNode(Configs[ci], specs[si], stream.Seed(ti), false)
				results[idx] = result{rate: res.Rate, err: err}
				if err == nil && ti == 0 {
					// The first trial of each cell also carries the
					// metrics sidecar; snapshots never perturb the run.
					results[idx].snap = node.SnapshotMetrics()
				}
			}
		}()
	}
	for idx := 0; idx < n; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	// Reduce in the sequential order; the first error (in that order) wins.
	t := newTable(title)
	idx := 0
	for _, spec := range specs {
		for _, cfg := range Configs {
			var s stats.Sample
			for ti := 0; ti < trials; ti++ {
				r := results[idx]
				idx++
				if r.err != nil {
					return nil, r.err
				}
				s.Add(r.rate)
				if ti == 0 {
					t.sidecar(spec.Name, cfg, r.snap)
				}
			}
			t.add(spec.Name, spec.Units, cfg, s.Summarize())
		}
	}
	return t, nil
}

// FormatSelfish renders the three noise profiles side by side.
func FormatSelfish(res map[Config]*noise.SelfishResult) string {
	var sb strings.Builder
	sb.WriteString("Selfish-detour noise profiles (Fig 4-6)\n")
	var cfgs []Config
	for c := range res {
		cfgs = append(cfgs, c)
	}
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i] < cfgs[j] })
	for _, c := range cfgs {
		sb.WriteString(res[c].Summary())
		sb.WriteByte('\n')
	}
	return sb.String()
}
