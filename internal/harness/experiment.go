package harness

import (
	"khsim/internal/cluster"
	"khsim/internal/sim"
)

// Report is what every registered experiment returns.
type Report interface {
	// Check returns an error unless the experiment's invariants held.
	Check() error
	// Artifact renders the run deterministically: two runs at one seed
	// render the same bytes, in one process or in two.
	Artifact() string
	// String renders the human-facing report.
	String() string
}

// Experiment is one end-to-end experiment: a named runner whose Report
// carries a verdict and a byte-comparable artifact.
type Experiment struct {
	Name string
	// Manifest is the built-in manifest text that Run parses; empty when
	// the experiment takes no manifest and Run ignores its argument.
	Manifest string
	Run      func(seed uint64, manifest string) (Report, error)
	// Seeds are two seeds at which Check passes; the determinism test
	// runs the experiment twice at the first and once at the second.
	Seeds [2]uint64
	// SeedBlind marks an experiment whose artifact, past the first line
	// that names the seed, is the same at every seed: its Kitten-only
	// stack draws no random number.
	SeedBlind bool
}

// forkSweepKills and forkSweepWindow are the fork sweep's cells: a
// control cell, then a VM crash at four delays into an 8 ms window.
var forkSweepKills = []sim.Duration{-1, sim.Millisecond / 2, sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond}

const forkSweepWindow = 8 * sim.Millisecond

// containRunTime is the containment experiment's primary spin: twenty
// periods of the Kitten primary's 10 Hz tick.
const containRunTime = 2 * sim.Second

// Experiments is the one list of end-to-end experiments. Each name is a
// khsim subcommand, khsim obscheck runs every entry, and
// TestExperimentsDeterministic replays each at its seeds.
var Experiments = []Experiment{
	{Name: "cluster", Manifest: ClusterManifestText, Seeds: [2]uint64{7, 8},
		Run: func(seed uint64, manifest string) (Report, error) {
			m, err := cluster.ParseManifest(manifest)
			if err != nil {
				return nil, err
			}
			return report(RunClusterManifest(m, seed))
		}},
	{Name: "snapshot", Seeds: [2]uint64{3, 4}, SeedBlind: true,
		Run: func(seed uint64, _ string) (Report, error) { return report(RunSnapshotCheck(seed)) }},
	{Name: "migrate", Seeds: [2]uint64{7, 8},
		Run: func(seed uint64, _ string) (Report, error) { return report(RunMigrationSuite(seed)) }},
	{Name: "serve", Manifest: ServingManifestText, Seeds: [2]uint64{9, 10},
		Run: func(seed uint64, manifest string) (Report, error) {
			return report(RunServingManifest(manifest, seed))
		}},
	{Name: "forksweep", Seeds: [2]uint64{7, 8}, SeedBlind: true,
		Run: func(seed uint64, _ string) (Report, error) {
			return report(RunForkSweep(seed, forkSweepKills, forkSweepWindow))
		}},
	{Name: "contain", Seeds: [2]uint64{7, 8},
		Run: func(seed uint64, _ string) (Report, error) {
			return report(RunFaultContainment(seed, containRunTime))
		}},
}

// report converts a runner's result to a Report, returning a nil
// interface on error rather than one holding a nil pointer.
func report[R Report](r R, err error) (Report, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}
