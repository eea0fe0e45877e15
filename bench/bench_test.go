package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of the repository's BENCHMARK.json the smoke test
// holds the benchmark to.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// result is a run's JSON result line.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

// runTiny runs one workload at tiny scale with seed 1 and returns its
// metric lines and its result line.
func runTiny(t *testing.T, name string, trace bool) ([]string, result) {
	t.Helper()
	var out strings.Builder
	o := options{seed: 1, trace: trace, traceDir: t.TempDir(), tiny: true}
	if err := runWorkload(&out, name, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return lines[:len(lines)-1], res
}

// checkResult requires a correct run whose result line carries exactly
// the named metrics, each with its unit.
func checkResult(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a correct run with no failures",
			res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result carries %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: printed=%v unit %q, want unit %q", m.Name, ok, got.Unit, m.Unit)
		}
	}
}

// simulatedLines keeps the lines that print simulated metrics.
func simulatedLines(lines []string) map[string]string {
	sim := make(map[string]bool)
	for _, d := range perLayer {
		sim[d.name] = d.simulated
	}
	out := make(map[string]string)
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && sim[f[1]] {
			out[f[1]] = l
		}
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloadNames))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			first, res := runTiny(t, w.Name, false)
			checkResult(t, res, s.EndToEnd)
			second, _ := runTiny(t, w.Name, false)
			traced, res := runTiny(t, w.Name, true)
			checkResult(t, res, s.PerLayer)

			a, b, c := simulatedLines(first), simulatedLines(second), simulatedLines(traced)
			if len(a) == 0 {
				t.Fatal("no simulated metric printed")
			}
			for name, line := range a {
				if b[name] != line || c[name] != line {
					t.Errorf("same seed, different simulated result:\n  %s\n  %s\n  %s (traced)", line, b[name], c[name])
				}
			}
		})
	}
}
