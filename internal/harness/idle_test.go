package harness

import (
	"os"
	"testing"

	"khsim/internal/kernel"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// TestIdleTieCount reports how many touches of a lazy Linux-primary core
// landed exactly on the instant of a skipped tick, trap end or tick end
// (DESIGN.md §9.9) over the paper round — every workload spec and the
// 30 s selfish detour under the Linux primary at seed 1 — and the runs
// `make identity` compares: every experiment at seeds 1, 2, 3 and 42 and
// the serving crash campaign at seeds 1-5. The seqs order a tie exactly
// where they can; the tie rule orders the rest, where a lazy core could
// part from the eager path, so it fails if the rule ordered any.
func TestIdleTieCount(t *testing.T) {
	crash, err := os.ReadFile("../../manifests/serving-crash.manifest")
	if err != nil {
		t.Fatal(err)
	}
	ties0, ruled0 := kernel.IdleTies()
	for _, spec := range workload.All() {
		if _, err := RunWorkload(LinuxVM, spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunSelfish(LinuxVM, 1, 30*sim.Second); err != nil {
		t.Fatal(err)
	}
	ties1, ruled1 := kernel.IdleTies()
	for _, e := range Experiments {
		for _, seed := range []uint64{1, 2, 3, 42} {
			if _, err := e.Run(seed, e.Manifest); err != nil {
				t.Fatalf("%s seed %d: %v", e.Name, seed, err)
			}
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		if _, err := RunServingManifest(string(crash), seed); err != nil {
			t.Fatal(err)
		}
	}
	ties2, ruled2 := kernel.IdleTies()
	t.Logf("paper round: %d ties, %d ordered by the tie rule", ties1-ties0, ruled1-ruled0)
	t.Logf("identity runs: %d ties, %d ordered by the tie rule", ties2-ties1, ruled2-ruled1)
	if ruled2 != ruled0 {
		t.Errorf("the tie rule ordered %d ties", ruled2-ruled0)
	}
}
