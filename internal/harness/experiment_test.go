package harness

import (
	"strings"
	"testing"
)

// TestExperimentsDeterministic is the observability gate in test form,
// over every registered experiment: each run at either seed passes
// Check, two runs at one seed render byte-identical artifacts, and the
// other seed changes the artifact past its first line (which names the
// seed, so comparing from line 2 keeps the assertion able to fail).
// SeedBlind experiments assert only same-seed identity: their
// Kitten-only stack draws nothing from the seed.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			run := func(seed uint64) string {
				r, err := e.Run(seed, e.Manifest)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := r.Check(); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, r)
				}
				return r.Artifact()
			}
			a, b, c := run(e.Seeds[0]), run(e.Seeds[0]), run(e.Seeds[1])
			if a != b {
				t.Fatalf("same-seed artifacts differ\n%s", diffHint(a, b))
			}
			_, bodyA, _ := strings.Cut(a, "\n")
			_, bodyC, _ := strings.Cut(c, "\n")
			if !e.SeedBlind && bodyA == bodyC {
				t.Fatalf("seeds %d and %d rendered the same artifact past line 1", e.Seeds[0], e.Seeds[1])
			}
		})
	}
}
